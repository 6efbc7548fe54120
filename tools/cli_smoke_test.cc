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
#include <fstream>
#include <string>
#include <utility>
#include <vector>

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

// Reads a popen()'d `qbs serve`'s readiness line into *ready and returns
// the port it names, or 0 if the line is not the readiness line.
int ReadyPort(FILE* server, std::string* ready) {
  std::array<char, 512> line{};
  if (fgets(line.data(), line.size(), server) == nullptr) return 0;
  *ready = line.data();
  const size_t colon = ready->find("listening on 127.0.0.1:");
  if (colon == std::string::npos) return 0;
  return std::atoi(ready->c_str() + colon + 23);
}

// Reads a popen()'d daemon's remaining output (its shutdown stats) into
// *log, reaps it and returns its pclose() status.
int Reap(FILE* server, std::string* log) {
  std::array<char, 512> line{};
  while (fgets(line.data(), line.size(), server) != nullptr) {
    *log += line.data();
  }
  return pclose(server);
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
  // The landmark adjacency bits sit on their own line, outside size(L):
  // 8 rows of 300 bits, each rounded up to five 64-bit words.
  EXPECT_NE(build_out.find("\nlandmark adjacency=320 bytes\n"),
            std::string::npos)
      << build_out;
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
  std::string ready;
  const int port = ReadyPort(server, &ready);
  ASSERT_GT(port, 0) << ready;

  const std::string load_out =
      RunOk(cli + " load " + Quoted(edges) + " 127.0.0.1 " +
            std::to_string(port) +
            " --queries 500 --pairs 40 --seed 42 --shutdown");
  EXPECT_NE(load_out.find("500/500 ok"), std::string::npos) << load_out;
  EXPECT_NE(load_out.find("hit-rate"), std::string::npos) << load_out;
  EXPECT_NE(load_out.find("acknowledged shutdown"), std::string::npos)
      << load_out;

  std::string log;
  const int status = Reap(server, &log);
  ASSERT_TRUE(WIFEXITED(status)) << log;
  EXPECT_EQ(WEXITSTATUS(status), 0) << log;
}

// The updatable daemon on a saved index (the load path, which runs no
// extra labelling pass): one insert and one delete through `qbs update`,
// then a load run on four connections against the edited index and a
// remote shutdown, with a clean exit from both sides. The readiness line
// echoes each timeout the daemon runs with.
TEST_F(CliSmokeTest, UpdatableServeUpdateLoadRoundTrip) {
  const std::string cli = Quoted(g_cli_path);
  const std::string edges = Path("g.edges");
  const std::string index = Path("g.qbs");
  RunOk(cli + " generate ba " + Quoted(edges) + " 300 3 7");
  RunOk(cli + " build " + Quoted(edges) + " " + Quoted(index) +
        " --landmarks 8");
  // Delete the file's first edge (the line after its "# n m" header) and
  // insert 0-299, which is no edge of this graph: the update below needs
  // both applied.
  std::ifstream file(edges);
  std::string first_edge;
  std::getline(file, first_edge);
  std::getline(file, first_edge);
  ASSERT_NE(first_edge.find(' '), std::string::npos) << first_edge;

  FILE* server = popen((cli + " serve " + Quoted(edges) + " " +
                        Quoted(index) +
                        " --port 0 --updatable --read-timeout-ms 4000"
                        " --idle-timeout-ms 30000 --write-timeout-ms 4000"
                        " 2>&1")
                           .c_str(),
                       "r");
  ASSERT_NE(server, nullptr);
  std::string ready;
  const int port = ReadyPort(server, &ready);
  ASSERT_GT(port, 0) << ready;
  EXPECT_NE(ready.find("read-timeout 4000ms, idle-timeout 30000ms, "
                       "write-timeout 4000ms"),
            std::string::npos)
      << ready;
  const std::string endpoint = " 127.0.0.1 " + std::to_string(port);

  const std::string update_out = RunOk(cli + " update" + endpoint +
                                       " --insert 0 299 --delete " +
                                       first_edge);
  EXPECT_NE(update_out.find("applied 1 inserts, 1 deletes"),
            std::string::npos)
      << update_out;
  const std::string load_out =
      RunOk(cli + " load " + Quoted(edges) + endpoint +
            " --queries 2000 --pairs 500 --zipf 0.99 --seed 42 --conns 4"
            " --shutdown");
  EXPECT_NE(load_out.find("2000/2000 ok"), std::string::npos) << load_out;
  EXPECT_NE(load_out.find("acknowledged shutdown"), std::string::npos)
      << load_out;

  std::string log;
  const int status = Reap(server, &log);
  ASSERT_TRUE(WIFEXITED(status)) << log;
  EXPECT_EQ(WEXITSTATUS(status), 0) << log;
  EXPECT_NE(log.find("stopped after"), std::string::npos) << log;
}

// A graph with fewer than 2 vertices has no query pair to sample: `stats`
// prints its other lines and no distance, and `load` exits 1 before it
// connects (port 1 has no server). Neither aborts.
TEST_F(CliSmokeTest, GraphsWithoutAQueryPair) {
  const std::string cli = Quoted(g_cli_path);
  const std::string no_edges = Path("no_edges.edges");
  const std::string one = Path("one.edges");
  RunOk(cli + " generate er " + Quoted(no_edges) + " 2 0");
  FILE* f = fopen(one.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("0 0\n", f);  // a self-loop: vertex 0 and no edge
  fclose(f);
  for (const std::string& edges : {no_edges, one}) {
    const std::string stats = RunOk(cli + " stats " + Quoted(edges));
    EXPECT_NE(stats.find("components:"), std::string::npos) << stats;
    EXPECT_NE(stats.find("avg distance:    n/a"), std::string::npos) << stats;

    std::string out;
    const int status =
        RunCapture(cli + " load " + Quoted(edges) + " 127.0.0.1 1", &out);
    ASSERT_TRUE(WIFEXITED(status)) << edges << "\n" << out;
    EXPECT_EQ(WEXITSTATUS(status), 1) << edges << "\n" << out;
    EXPECT_NE(out.find("a query pair needs 2 vertices"), std::string::npos)
        << out;
  }
}

// A query names the file's vertex ids: this BA file uses every id 0..49
// and lists the edge "3 4", so SPG(3, 4) is that one edge.
TEST_F(CliSmokeTest, QueryIdsAreTheFileIds) {
  const std::string cli = Quoted(g_cli_path);
  const std::string edges = Path("g.edges");
  RunOk(cli + " generate ba " + Quoted(edges) + " 50 2 7");
  const std::string out = RunOk(cli + " query " + Quoted(edges) + " - 3 4");
  EXPECT_NE(out.find("SPG(3,4): d=1, 2 vertices, 1 edges"), std::string::npos)
      << out;
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
  const std::string extra = Path("extra.txt");
  for (const auto& [path, text] :
       {std::pair{requests, "0 17\n4294967296 17\n"},
        std::pair{extra, "5 6 distance 0 7 8\n"}}) {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    fclose(f);
  }
  const std::string h_edges = Quoted(Path("h.edges"));
  const std::string h_index = Quoted(Path("h.qbs"));
  const std::string load = " load " + edges + " 127.0.0.1 1";
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
      {" build " + edges + " " + Quoted(Path("h.qbs")) + " --strategy random",
       2, "unknown option --strategy"},
      // Options are parsed before the graph is read.
      {" build " + Quoted(Path("missing.edges")) + " " + h_index +
           " --strategy random",
       2, "unknown option --strategy"},
      {" build " + edges + " " + h_index + " --landmarks", 2,
       "missing value for --landmarks"},
      {" query " + edges + " - 0 17 --budget", 2, "missing value for --budget"},
      {" update 127.0.0.1 1 --insert 1", 2, "missing value for --insert"},
      // Non-finite and negative rates fail before the CLI connects.
      {load + " --zipf nan", 2, "bad value 'nan' for --zipf"},
      {load + " --burst nan", 2, "bad value 'nan' for --burst"},
      {load + " --rate -5", 2, "bad value '-5' for --rate"},
      // Counts past any allocation fail at run time, without an abort.
      {load + " --queries 18446744073709551615", 1, "qbs load: cannot alloc"},
      {load + " --pairs 18446744073709551615", 1, "qbs load: cannot alloc"},
      {load + " --queries 4 --conns 18446744073709551615", 1, "qbs load: 0/4"},
      // The trailing unknown option stops a daemon from starting, and
      // blocking the test, if --port ever stops being checked.
      {" serve " + edges + " " + index + " --port 70000 --no-such-option", 2,
       "bad value '70000' for --port"},
      {" serve " + edges + " " + index + " --read_timeout_ms 5", 2,
       "unknown option --read_timeout_ms"},
      {" serve " + edges + " " + index +
           " --write-timeout-ms -1 --no-such-option",
       2, "bad value '-1' for --write-timeout-ms"},
      // Both fail while parsing, before the CLI connects to anything.
      {" update 127.0.0.1 1 --insert abc 2", 2,
       "bad value 'abc' for --insert"},
      {" update 127.0.0.1 1 --delete 3 4294967296", 2,
       "bad value '4294967296' for --delete"},
      {" generate ba " + h_edges + " 300 3x", 2, "bad value '3x' for m"},
      // Out of the generators' ranges: exit 2, not an abort.
      {" generate er " + h_edges + " 5 100", 2, "bad value '100' for edges"},
      {" generate ba " + h_edges + " 3 5", 2, "bad value '3' for n"},
      {" generate ws " + h_edges + " 10 3 0.1", 2, "bad value '3' for k"},
      {" generate rmat " + h_edges + " 40 4", 2, "bad value '40' for scale"},
      {" generate dataset " + h_edges + " ZZ", 2, "unknown dataset 'ZZ'"},
      {" generate dataset " + h_edges + " epinions", 2,
       "no stand-in for dataset 'epinions'"},
      {" generate dataset " + h_edges + " DO 0.0001", 2,
       "bad value '0.0001' for scale"},
      {" query " + edges + " " + index + " --requests " + Quoted(requests), 1,
       requests + ":2: bad vertex id '4294967296'"},
      {" query " + edges + " " + index + " --requests " + Quoted(extra), 1,
       extra + ":1: unexpected '7'"},
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
    EXPECT_EQ(out.find("cannot open"), std::string::npos) << c.args;
  }
  EXPECT_FALSE(std::filesystem::exists(Path("h.qbs")));
  EXPECT_FALSE(std::filesystem::exists(Path("h.edges")));
}

// `qbs` without a verb, or with an unknown one, exits 2 and lists each
// verb's options. The reference is this list of all 34, not the CLI's own
// tables.
TEST_F(CliSmokeTest, UsageListsEveryOption) {
  const std::pair<const char*, std::vector<std::string>> verbs[] = {
      {"build", {"--landmarks", "--threads"}},
      {"query", {"--requests", "--mode", "--budget", "--format", "--threads"}},
      {"serve",
       {"--host", "--port", "--max-inflight", "--max-queue", "--max-conns",
        "--cache-mb", "--no-remote-shutdown", "--updatable",
        "--read-timeout-ms", "--idle-timeout-ms", "--write-timeout-ms",
        "--degrade-after-inflight"}},
      {"load",
       {"--queries", "--pairs", "--zipf", "--seed", "--conns", "--mode",
        "--budget", "--rate", "--burst", "--deadline-ms", "--no-cache",
        "--shutdown"}},
      {"update", {"--insert", "--delete", "--file"}},
  };
  for (const char* args : {"", " bogus"}) {
    std::string out;
    const int status = RunCapture(Quoted(g_cli_path) + args, &out);
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << args;
    for (const auto& [verb, names] : verbs) {
      // A verb's usage runs from "qbs <verb> " to the next "qbs ".
      const size_t begin = out.find(std::string("qbs ") + verb + " ");
      ASSERT_NE(begin, std::string::npos) << verb << "\n" << out;
      const std::string usage =
          out.substr(begin, out.find("qbs ", begin + 1) - begin);
      for (const std::string& name : names) {
        EXPECT_NE(usage.find("[" + name), std::string::npos)
            << verb << " " << name << "\n" << out;
      }
    }
  }
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
