"""Repository hygiene: no bytecode in git, no source-less bytecode,
and a change log that stays a log.

Three failure modes this guards against, all of which have bitten
real checkouts:

* a ``__pycache__`` entry (or any ``.pyc``) committed to git — stale
  bytecode shadows source edits and churns every diff;
* *orphaned* bytecode on disk: a ``.pyc`` whose source module was
  deleted or renamed.  Python happily keeps importing the ghost
  module, so refactors appear to work locally while every fresh
  clone breaks;
* a CHANGES.md entry that grows into a report: its tables belong in
  EXPERIMENTS.md and its reasoning in a DESIGN.md decision record.
"""

import os
import re
import subprocess

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_no_bytecode_tracked_by_git():
    tracked = subprocess.run(
        ["git", "ls-files"], cwd=REPO_ROOT, capture_output=True,
        text=True, check=True).stdout.splitlines()
    offenders = [path for path in tracked
                 if "__pycache__" in path.split("/")
                 or path.endswith((".pyc", ".pyo"))]
    assert not offenders, (
        f"bytecode tracked by git (git rm --cached them): "
        f"{offenders}")


def test_no_sourceless_bytecode_on_disk():
    """Every ``__pycache__/*.pyc`` must shadow a live ``.py`` next to
    its cache directory; a ghost pyc means a deleted module is still
    importable locally."""
    orphans = []
    for root, dirs, files in os.walk(REPO_ROOT):
        dirs[:] = [d for d in dirs if d != ".git"]
        if os.path.basename(root) != "__pycache__":
            continue
        source_dir = os.path.dirname(root)
        for name in files:
            if not name.endswith((".pyc", ".pyo")):
                continue
            # cpython tag form: "module.cpython-311.pyc"
            module = name.split(".", 1)[0]
            if not os.path.exists(
                    os.path.join(source_dir, module + ".py")):
                orphans.append(
                    os.path.relpath(os.path.join(root, name),
                                    REPO_ROOT))
    assert not orphans, (
        f"source-less bytecode on disk (delete it): {orphans}")


#: The first CHANGES.md entry held to :data:`ENTRY_BYTES`; the ones
#: before it were written as reports and are left as they are.
FIRST_SHORT_ENTRY = 37
ENTRY_BYTES = 1536
#: Where a CHANGES.md entry starts: ``PR N: …``, ``- PR N …`` or
#: ``- **PR N [tag] …**``, at the start of a line.
ENTRY_START = re.compile(r"^(?:- )?(?:\*\*)?PR (\d+)\b", re.MULTILINE)


def changes_entries(text: str) -> dict:
    """Each entry's number and its text, up to the next entry."""
    starts = list(ENTRY_START.finditer(text))
    return {int(match[1]): text[match.start():end].rstrip()
            for match, end in zip(starts, [m.start() for m in starts[1:]]
                                  + [len(text)])}


def test_a_changes_entry_is_a_log_line_not_a_report():
    """Every CHANGES.md entry from :data:`FIRST_SHORT_ENTRY` on is at
    most 1.5 KiB and carries no table: what was measured goes to
    EXPERIMENTS.md, why it was done to a DESIGN.md record, and the entry
    points at them."""
    with open(os.path.join(REPO_ROOT, "CHANGES.md"),
              encoding="utf-8") as changes:
        entries = changes_entries(changes.read())
    assert FIRST_SHORT_ENTRY in entries
    for pr, entry in entries.items():
        if pr < FIRST_SHORT_ENTRY:
            continue
        size = len(entry.encode("utf-8"))
        assert size <= ENTRY_BYTES, \
            f"CHANGES.md entry {pr} is {size} B (> {ENTRY_BYTES})"
        assert not re.search(r"^\s*\|", entry, re.MULTILINE), \
            f"CHANGES.md entry {pr} carries a table"


def test_changes_entries_are_found_however_they_open():
    text = ("PR 1: first\n- PR 21: second\n  wrapped\n"
            "- **PR 40 [tag] third.** body\n")
    assert changes_entries(text) == {
        1: "PR 1: first", 21: "- PR 21: second\n  wrapped",
        40: "- **PR 40 [tag] third.** body"}
