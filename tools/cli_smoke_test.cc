// End-to-end smoke test for tools/qbs_cli.cc. Drives the installed binary
// through its four subcommands: synthesize a small graph, print stats,
// build + save an index, then answer queries from the saved index and from
// a freshly built in-memory one ('-'), checking the two agree.
//
// The path to the CLI binary is passed as the first non-gtest argv.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

namespace {

std::string g_cli_path;

// Shell-quotes one argument for the popen()'d command line; paths (the CLI
// binary under the build tree, TMPDIR) may contain spaces.
std::string Quoted(const std::string& arg) {
  std::string out = "'";
  for (const char c : arg) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

// Runs `cmd`, captures stdout and stderr into *out, and returns the
// pclose() status.
int RunCapture(const std::string& cmd, std::string* out) {
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  if (pipe == nullptr) return -1;
  std::array<char, 4096> buf;
  size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out->append(buf.data(), n);
  }
  return pclose(pipe);
}

// Runs `cmd`, captures stdout, and returns it; fails the test on a non-zero
// exit status.
std::string RunOk(const std::string& cmd) {
  std::string out;
  const int status = RunCapture(cmd, &out);
  EXPECT_EQ(status, 0) << "command failed: " << cmd << "\noutput:\n" << out;
  return out;
}

class CliSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per-run dir: concurrent ctest invocations (e.g. two build
    // trees, or a shared CI runner) must not share scratch files.
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "qbs_cli_smoke.XXXXXX")
            .string();
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr) << "mkdtemp: " << tmpl;
    dir_ = tmpl;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(CliSmokeTest, GenerateBuildSaveLoadQuery) {
  const std::string cli = Quoted(g_cli_path);
  const std::string edges = Path("g.edges");
  const std::string index = Path("g.qbs");

  // Synthesize a small Barabási–Albert graph (connected by construction).
  const std::string gen_out =
      RunOk(cli + " generate ba " + Quoted(edges) + " 300 3 7");
  EXPECT_NE(gen_out.find("300 vertices"), std::string::npos) << gen_out;

  const std::string stats_out = RunOk(cli + " stats " + Quoted(edges));
  EXPECT_NE(stats_out.find("vertices:"), std::string::npos) << stats_out;
  EXPECT_NE(stats_out.find("components:      1"), std::string::npos)
      << stats_out;

  // Build and save an index.
  const std::string build_out = RunOk(cli + " build " + Quoted(edges) + " " +
                                      Quoted(index) + " --landmarks 8");
  EXPECT_NE(build_out.find("saved"), std::string::npos) << build_out;
  EXPECT_TRUE(std::filesystem::exists(index));

  // Query through the saved index, and through a fresh in-memory build;
  // the reported SPG lines must match (deterministic landmark selection).
  const std::string q = " query " + Quoted(edges) + " ";
  const std::string pairs = " 0 299 5 250 17 123";
  const std::string loaded_out = RunOk(cli + q + Quoted(index) + pairs);
  const std::string fresh_out = RunOk(cli + q + "-" + pairs);

  for (const auto* needle : {"SPG(0,299)", "SPG(5,250)", "SPG(17,123)"}) {
    EXPECT_NE(loaded_out.find(needle), std::string::npos)
        << needle << " missing from:\n"
        << loaded_out;
  }
  // Distances from the loaded index must agree with the fresh build. Compare
  // just the "d=..." summary lines (timings differ run to run).
  auto summary_lines = [](const std::string& s) {
    std::string acc;
    size_t pos = 0;
    while ((pos = s.find("SPG(", pos)) != std::string::npos) {
      const size_t paren = s.find(" (", pos);
      const size_t eol = s.find('\n', pos);
      const size_t end = std::min(paren == std::string::npos ? eol : paren,
                                  eol == std::string::npos ? paren : eol);
      acc += s.substr(pos, end - pos);
      acc += '\n';
      pos = end == std::string::npos ? s.size() : end;
    }
    return acc;
  };
  EXPECT_EQ(summary_lines(loaded_out), summary_lines(fresh_out));
}

TEST_F(CliSmokeTest, QueryFormatsAndRequestFiles) {
  const std::string cli = Quoted(g_cli_path);
  const std::string edges = Path("g.edges");
  RunOk(cli + " generate ba " + Quoted(edges) + " 200 3 7");

  // A request file with comments, blank lines, and per-line mode/budget
  // overrides — the batch input surface of the restructured query verb.
  const std::string requests = Path("requests.txt");
  {
    FILE* f = fopen(requests.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "# u v [mode] [budget]\n"
        "0 199\n"
        "\n"
        "5 150 distance\n"
        "17 123 spg 2\n",
        f);
    fclose(f);
  }

  const std::string base = cli + " query " + Quoted(edges) +
                           " - --requests " + Quoted(requests);
  const std::string tsv = RunOk(base + " --format tsv");
  EXPECT_NE(tsv.find("# u\tv\tmode\tbudget\tdistance"), std::string::npos)
      << tsv;
  EXPECT_NE(tsv.find("5\t150\tdistance\t0\t"), std::string::npos) << tsv;
  EXPECT_NE(tsv.find("17\t123\tspg\t2\t"), std::string::npos) << tsv;

  const std::string jsonl = RunOk(base + " --format jsonl");
  EXPECT_NE(jsonl.find("{\"u\":0,\"v\":199,\"mode\":\"spg\""),
            std::string::npos)
      << jsonl;
  EXPECT_NE(jsonl.find("\"distance\":"), std::string::npos) << jsonl;

  // Out-of-range vertex: runtime failure, not a crash; exit code 1.
  FILE* pipe = popen((cli + " query " + Quoted(edges) +
                      " - 0 99999 --format tsv 2>/dev/null")
                         .c_str(),
                     "r");
  ASSERT_NE(pipe, nullptr);
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
}

TEST_F(CliSmokeTest, ServeAndLoadRoundTrip) {
  const std::string cli = Quoted(g_cli_path);
  const std::string edges = Path("g.edges");
  const std::string index = Path("g.qbs");
  RunOk(cli + " generate ba " + Quoted(edges) + " 300 3 7");
  RunOk(cli + " build " + Quoted(edges) + " " + Quoted(index) +
        " --landmarks 8");

  // Start the daemon on an ephemeral port and parse it from the readiness
  // line, then drive it with the seeded load client and ask it to shut
  // down; the daemon must exit 0.
  FILE* server = popen((cli + " serve " + Quoted(edges) + " " +
                        Quoted(index) + " --port 0 2>&1")
                           .c_str(),
                       "r");
  ASSERT_NE(server, nullptr);
  std::array<char, 512> line{};
  ASSERT_NE(fgets(line.data(), line.size(), server), nullptr);
  const std::string ready(line.data());
  ASSERT_NE(ready.find("listening on"), std::string::npos) << ready;
  const size_t colon = ready.find("127.0.0.1:");
  ASSERT_NE(colon, std::string::npos) << ready;
  const int port = std::atoi(ready.c_str() + colon + 10);
  ASSERT_GT(port, 0) << ready;

  const std::string load_out =
      RunOk(cli + " load " + Quoted(edges) + " 127.0.0.1 " +
            std::to_string(port) +
            " --queries 500 --pairs 40 --seed 42 --shutdown");
  EXPECT_NE(load_out.find("500/500 ok"), std::string::npos) << load_out;
  EXPECT_NE(load_out.find("hit-rate"), std::string::npos) << load_out;
  EXPECT_NE(load_out.find("acknowledged shutdown"), std::string::npos)
      << load_out;

  // Drain the daemon's remaining output (stats dump) and reap it.
  while (fgets(line.data(), line.size(), server) != nullptr) {
  }
  const int status = pclose(server);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// An edit line whose endpoint is not a whole decimal id below 2^32 fails
// before any connection is made (port 1 has no server): nothing may wrap
// to another vertex, read as 0, or ignore trailing junk.
TEST_F(CliSmokeTest, UpdateRejectsBadVertexIds) {
  const std::string edits = Path("bad.txt");
  const struct {
    const char* line;
    const char* message;
  } cases[] = {
      {"i 4294967297 5", ":1: bad vertex id '4294967297'"},
      {"d 3 x", ":1: bad vertex id 'x'"},
      {"i 1 2 junk", ":1: bad vertex id '2 junk'"},
  };
  for (const auto& c : cases) {
    FILE* f = fopen(edits.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%s\n", c.line);
    fclose(f);
    std::string out;
    const int status = RunCapture(Quoted(g_cli_path) +
                               " update 127.0.0.1 1 --file " + Quoted(edits),
                           &out);
    ASSERT_TRUE(WIFEXITED(status)) << c.line;
    EXPECT_NE(WEXITSTATUS(status), 0) << c.line;
    EXPECT_NE(out.find(edits + c.message), std::string::npos)
        << c.line << " printed:\n"
        << out;
    EXPECT_EQ(out.find("connect failed"), std::string::npos) << out;
  }
}

// An unknown verb fails. A numeric argument that is not a whole decimal
// in its destination's range is a usage error (exit 2) naming the
// argument: nothing may truncate to another vertex or landmark count, or
// read as 0. A bad request-file line is a line error (exit 1).
TEST_F(CliSmokeTest, UsageOnBadInvocation) {
  const std::string cli = Quoted(g_cli_path);
  FILE* pipe = popen((cli + " bogus 2>/dev/null").c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  EXPECT_NE(pclose(pipe), 0);

  const std::string edges = Quoted(Path("g.edges"));
  const std::string index = Quoted(Path("g.qbs"));
  RunOk(cli + " generate ba " + edges + " 300 3 7");
  RunOk(cli + " build " + edges + " " + index + " --landmarks 8");
  const std::string requests = Path("requests.txt");
  {
    FILE* f = fopen(requests.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("0 17\n4294967296 17\n", f);
    fclose(f);
  }
  const struct {
    std::string args;
    int exit_code;
    std::string message;
  } cases[] = {
      {" query " + edges + " " + index + " 4294967296 17", 2,
       "bad value '4294967296' for vertex id"},
      {" query " + edges + " " + index + " abc 17", 2,
       "bad value 'abc' for vertex id"},
      {" query " + edges + " " + index + " 0 17 --budget -1", 2,
       "bad value '-1' for --budget"},
      {" build " + edges + " " + Quoted(Path("h.qbs")) +
           " --landmarks 4294967304",
       2, "bad value '4294967304' for --landmarks"},
      // The trailing unknown option stops a daemon from starting, and
      // blocking the test, if --port ever stops being checked.
      {" serve " + edges + " " + index + " --port 70000 --no-such-option", 2,
       "bad value '70000' for --port"},
      {" generate ba " + Quoted(Path("h.edges")) + " 300 3x", 2,
       "bad value '3x' for m"},
      {" query " + edges + " " + index + " --requests " + Quoted(requests), 1,
       requests + ":2: bad vertex id '4294967296'"},
  };
  for (const auto& c : cases) {
    std::string out;
    const int status = RunCapture(cli + c.args, &out);
    ASSERT_TRUE(WIFEXITED(status)) << c.args;
    EXPECT_EQ(WEXITSTATUS(status), c.exit_code) << c.args << "\n" << out;
    EXPECT_NE(out.find(c.message), std::string::npos)
        << c.args << " printed:\n"
        << out;
    EXPECT_EQ(out.find("SPG("), std::string::npos) << c.args << "\n" << out;
  }
  EXPECT_FALSE(std::filesystem::exists(Path("h.qbs")));
  EXPECT_FALSE(std::filesystem::exists(Path("h.edges")));
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc < 2) {
    std::fprintf(stderr, "usage: cli_smoke_test <path-to-qbs-cli>\n");
    return 2;
  }
  g_cli_path = argv[1];
  return RUN_ALL_TESTS();
}
