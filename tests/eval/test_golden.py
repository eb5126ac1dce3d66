"""The paper's artifacts are pinned: ``python -m repro.eval all
--scale 0.03`` must print ``fixtures/eval_all_scale_0.03.txt`` line
for line, less the ``[<artifact> in Xs]`` timing lines.

The fixture was captured before the eval experiments were consolidated
into the one table of artifacts, ``repro.eval.__main__.ARTIFACTS``; a
refactor of ``repro.eval``, ``sim``, ``core``, ``workloads`` or
``security`` must reproduce it exactly.  A deliberate change to a
paper number re-captures it by running this file as a script, and
says so in the changelog.
"""

import contextlib
import difflib
import io
import os
import re

from repro.eval.__main__ import ARTIFACTS, main

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "eval_all_scale_0.03.txt")
ARGV = ["all", "--scale", "0.03"]
TIMING = re.compile(r"^\[\w+ in [0-9.]+s\]\n", re.MULTILINE)
RULE = "=" * 72 + "\n"


def capture() -> str:
    """The CLI's output for ``ARGV`` without its timing lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(ARGV) == 0
    return TIMING.sub("", out.getvalue())


def sections(text: str) -> dict:
    """Artifact name -> its printed block, in ``ARTIFACTS`` order."""
    blocks = text.split(RULE)
    assert blocks[0] == "" and len(blocks) == len(ARTIFACTS) + 1, \
        f"{len(blocks) - 1} blocks for {len(ARTIFACTS)} artifacts"
    return dict(zip(ARTIFACTS, blocks[1:]))


def test_eval_all_matches_the_golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = sections(fh.read())
    actual = sections(capture())
    report = []
    for name, golden in expected.items():
        diff = [line for line in difflib.unified_diff(
            golden.splitlines(), actual[name].splitlines(),
            "golden", "now", lineterm="", n=0)
            if line[:1] in "+-" and line[:3] not in ("+++", "---")]
        if diff:
            changed = sum(line[0] == "-" for line in diff)
            report.append(f"{name}: {changed} golden lines changed\n"
                          + "\n".join(diff[:20]))
    assert not report, "\n".join(report)


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write(capture())
