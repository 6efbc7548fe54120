#!/usr/bin/env python3
"""Self-test for qbs_lint.py: every rule must fire on a synthetic violation,
stay quiet on the sanctioned patterns, and the allowlist ratchet must fail
on stale entries. Runs as the `qbs_lint_py` ctest."""

import io
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import qbs_lint  # noqa: E402


def lint_tree(files, allowlists=None):
    """Builds a temp repo with `files` ({relpath: content}) and lints it.
    Returns (failure_count, output_text)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for rel, content in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        for rule_name, entries in (allowlists or {}).items():
            path = root / "scripts" / "lint_allowlists" / f"{rule_name}.txt"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("\n".join(entries) + "\n")
        out = io.StringIO()
        failures = qbs_lint.run_lint(root, out=out)
        return failures, out.getvalue()


class QbsLintTest(unittest.TestCase):
    def test_clean_tree_passes(self):
        failures, _ = lint_tree(
            {"src/core/a.cc": 'int main() { return 0; }\n'}
        )
        self.assertEqual(failures, 0)

    def test_raw_socket_fires_outside_socket_cc(self):
        failures, out = lint_tree(
            {"src/server/server.cc": "void F(int fd) { ::shutdown(fd, 2); }\n"}
        )
        self.assertEqual(failures, 1)
        self.assertIn("[raw-socket]", out)

    def test_raw_socket_exempts_socket_cc(self):
        failures, _ = lint_tree(
            {"src/server/socket.cc": "void F(int fd) { ::shutdown(fd, 2); }\n"}
        )
        self.assertEqual(failures, 0)

    def test_raw_mutex_fires_on_type_and_include(self):
        failures, out = lint_tree(
            {
                "src/core/a.h": "#include <mutex>\n",
                "src/core/b.cc": "std::shared_mutex mu;\n",
            }
        )
        self.assertEqual(failures, 2)
        self.assertIn("[raw-mutex]", out)

    def test_raw_mutex_exempts_sync_h(self):
        failures, _ = lint_tree(
            {"src/util/sync.h": "#include <mutex>\nstd::mutex mu;\n"}
        )
        self.assertEqual(failures, 0)

    def test_comment_mentions_do_not_fire(self):
        failures, _ = lint_tree(
            {
                "src/core/a.cc": (
                    "// raw ::send( calls and std::mutex are banned\n"
                    "/* std::condition_variable too,\n"
                    "   even ::recv( across lines */\n"
                    "int x;\n"
                )
            }
        )
        self.assertEqual(failures, 0)

    def test_unseeded_rng_fires_and_seeded_passes(self):
        failures, out = lint_tree(
            {
                "src/gen/a.cc": "int x = rand();\n",
                "src/gen/b.cc": "std::mt19937 gen;\n",
                "src/gen/c.cc": "std::mt19937 gen(seed);\n",  # seeded: OK
            }
        )
        self.assertEqual(failures, 2)
        self.assertIn("[unseeded-rng]", out)

    def test_no_cout_fires_in_src_only(self):
        failures, out = lint_tree(
            {
                "src/core/a.cc": 'void F() { std::cout << 1; }\n',
                "tools/cli.cc": 'void G() { std::cout << 1; }\n',  # out of scope
            }
        )
        self.assertEqual(failures, 1)
        self.assertIn("[no-cout]", out)

    def test_allowlist_admits_violation(self):
        failures, _ = lint_tree(
            {"src/core/a.cc": "std::mutex mu;\n"},
            allowlists={"raw-mutex": ["src/core/a.cc"]},
        )
        self.assertEqual(failures, 0)

    def test_stale_allowlist_entry_fails(self):
        failures, out = lint_tree(
            {"src/core/a.cc": "int x;\n"},
            allowlists={"raw-mutex": ["src/core/a.cc"]},
        )
        self.assertEqual(failures, 1)
        self.assertIn("stale allowlist entry", out)

    def test_real_tree_is_clean(self):
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        out = io.StringIO()
        failures = qbs_lint.run_lint(repo_root, out=out)
        self.assertEqual(failures, 0, out.getvalue())


if __name__ == "__main__":
    unittest.main()
