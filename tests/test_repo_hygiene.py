"""Repository hygiene: no bytecode in git, no source-less bytecode,
a change log that stays a log, no module without a caller, no stale
flag in the docs, and no daemon CI starts by hand.

Seven failure modes this guards against, all of which have bitten
real checkouts:

* a ``__pycache__`` entry (or any ``.pyc``) committed to git — stale
  bytecode shadows source edits and churns every diff;
* *orphaned* bytecode on disk: a ``.pyc`` whose source module was
  deleted or renamed.  Python happily keeps importing the ghost
  module, so refactors appear to work locally while every fresh
  clone breaks;
* a CHANGES.md entry that grows into a report: its tables belong in
  EXPERIMENTS.md and its reasoning in a DESIGN.md decision record;
* a ``src/repro`` module that nothing outside ``tests/`` imports
  (DESIGN §3: a path needs a caller);
* a ``--flag`` in README.md or the verify skill that no parser
  declares any more;
* a daemon started by hand in CI, beside :mod:`repro.topology`, or a
  ``TERP_TOPOLOGY`` value that names no topology;
* a CI step naming a ``benchmarks/`` or ``tests/`` file (or a test in
  one) that is gone: a retired file leaves a dead step behind.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: What ``.gitignore`` must keep out of git for bytecode to stay out.
BYTECODE_PATTERNS = ("__pycache__/", "*.py[cod]")


def bytecode_tracking_problems(root) -> list:
    """Why bytecode is, or could get, into git at ``root``: in a git
    work tree, each tracked bytecode path; in an export (``git
    archive``, which has no index to ask), each of
    :data:`BYTECODE_PATTERNS` its ``.gitignore`` no longer holds."""
    try:
        inside = subprocess.run(
            ["git", "rev-parse", "--is-inside-work-tree"], cwd=root,
            capture_output=True, text=True).stdout.strip() == "true"
    except FileNotFoundError:          # no git at all
        inside = False
    if not inside:
        ignore = pathlib.Path(root, ".gitignore")
        held = set(ignore.read_text().split()) if ignore.exists() \
            else set()
        return [f".gitignore does not hold {pattern!r}"
                for pattern in BYTECODE_PATTERNS if pattern not in held]
    tracked = subprocess.run(
        ["git", "ls-files"], cwd=root, capture_output=True,
        text=True, check=True).stdout.splitlines()
    return [path for path in tracked
            if "__pycache__" in path.split("/")
            or path.endswith((".pyc", ".pyo"))]


def test_no_bytecode_tracked_by_git():
    offenders = bytecode_tracking_problems(REPO_ROOT)
    assert not offenders, (
        f"bytecode tracked by git (git rm --cached them): "
        f"{offenders}")


def test_an_export_checks_what_gitignore_keeps_out(tmp_path):
    """Outside a work tree the check neither errors nor passes
    blindly: it holds ``.gitignore`` to the bytecode patterns."""
    export = tmp_path / "export"
    export.mkdir()
    assert bytecode_tracking_problems(export) == [
        f".gitignore does not hold {pattern!r}"
        for pattern in BYTECODE_PATTERNS]
    (export / ".gitignore").write_text("build/\n__pycache__/\n")
    assert bytecode_tracking_problems(export) == [
        ".gitignore does not hold '*.py[cod]'"]
    (export / ".gitignore").write_text(
        pathlib.Path(REPO_ROOT, ".gitignore").read_text())
    assert bytecode_tracking_problems(export) == []


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


#: ``src/repro`` modules kept though nothing in ``src/``, ``benchmarks/``
#: or ``examples/`` imports them; DESIGN §3's "a path needs a caller"
#: record says why each one stays.
KEPT_WITHOUT_A_CALLER: frozenset = frozenset()


def python_files(*roots: str):
    for root in roots:
        yield from sorted(pathlib.Path(REPO_ROOT, root).rglob("*.py"))


def modules_without_a_caller() -> list:
    """The ``src/repro`` modules no file outside ``tests/`` imports.  A
    name imported from a package counts as an import of the module its
    ``__init__`` re-exports it from; a name that is itself a module
    file (``from repro.obs import ring``) is that module."""
    src = pathlib.Path(REPO_ROOT, "src")
    modules = {".".join(path.relative_to(src).with_suffix("").parts)
               for path in python_files("src")
               if path.name != "__init__.py"}
    reexports = {}
    for path in src.rglob("__init__.py"):
        package = ".".join(path.relative_to(src).parent.parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    name = f"{package}.{alias.asname or alias.name}"
                    if name not in modules:
                        reexports[name] = node.module
        # A lazy re-export (PEP 562) is a row of the package's
        # ``_EXPORTS``: name → the module it is imported from.
        lazy = vars(importlib.import_module(package)).get("_EXPORTS", {})
        reexports.update({f"{package}.{name}": module
                          for name, module in lazy.items()})
    imported = set()
    for path in python_files("src", "benchmarks", "examples"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            imported.update(reexports.get(n, n) for n in names)
    return sorted(name for name in modules - imported
                  if not name.endswith(".__main__"))


def test_every_module_has_a_caller_outside_the_tests():
    uncalled = set(modules_without_a_caller())
    assert uncalled == KEPT_WITHOUT_A_CALLER, (
        f"no caller outside tests/ (give one, delete the module, or "
        f"keep it in DESIGN §3 and here): "
        f"{sorted(uncalled - KEPT_WITHOUT_A_CALLER)}; kept but called "
        f"now: {sorted(KEPT_WITHOUT_A_CALLER - uncalled)}")


#: Documents whose ``--flags`` must name a declared option.
FLAG_DOCS = ("README.md", os.path.join(".claude", "skills", "verify",
                                       "SKILL.md"))
#: pytest-benchmark's option, the one flag no parser here declares.
FOREIGN_FLAGS = {"--benchmark-only"}
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def declared_flags() -> set:
    """Every ``--flag`` an ``add_argument`` in ``src/`` or
    ``benchmarks/`` declares, read off the AST.  Two loops declare
    theirs from a table's rows (``launch.add_flags`` from ``SETTINGS``,
    the chaos CLI from ``SCENARIOS``' sizes); their rows are read from
    the tables, and any other non-literal declaration fails."""
    from repro.faults.chaos import SCENARIOS
    from repro.service.launch import SETTINGS

    flags = {"--help"}          # every argparse parser has it
    computed = []
    for path in python_files("src", "benchmarks"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                continue
            for arg in node.args:
                if isinstance(arg, ast.Constant):
                    flags.add(arg.value)
                else:
                    computed.append(path.name)
    assert sorted(computed) == ["chaos.py", "launch.py", "launch.py"], \
        f"flags declared from a table not read here: {computed}"
    flags.update(row.flag for row in SETTINGS.values())
    flags.update(f"--{size}" for row in SCENARIOS.values()
                 for size in row.sizes)
    return flags


def test_every_flag_in_the_docs_is_declared():
    declared = declared_flags() | FOREIGN_FLAGS
    stale = {}
    for doc in FLAG_DOCS:
        with open(os.path.join(REPO_ROOT, doc), encoding="utf-8") as fh:
            missing = set(FLAG.findall(fh.read())) - declared
        if missing:
            stale[doc] = sorted(missing)
    assert not stale, f"flags no parser declares: {stale}"


CI = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")


def ci_run_blocks() -> list:
    """Each ``run:`` of ci.yml: a one-liner, or a block's lines (every
    line indented past its key) joined.  Read as text: CI's tier-1 job
    installs no YAML parser."""
    with open(CI, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    blocks = []
    for i, line in enumerate(lines):
        key = re.match(r"( *)(?:- )?run: *(.*)$", line)
        if key is None:
            continue
        if key.group(2) not in ("|", ">"):
            blocks.append(key.group(2))
            continue
        body = []
        for follower in lines[i + 1:]:
            if follower.strip() and len(follower) - \
                    len(follower.lstrip()) <= len(key.group(1)):
                break
            body.append(follower)
        blocks.append("\n".join(body))
    return blocks


#: How a script stands a daemon up by hand; ``--help`` starts none.
HAND_LAUNCH = re.compile(
    r"\b(?:ServiceThread|Proc|Popen)\b"
    r"|python3?\s+-m\s+repro\.(?:service|cluster|replication)\b"
    r"(?!\s+--help)")


def test_ci_starts_no_daemon_by_hand():
    """CI's daemons are the tests' (``repro.topology``, run by name):
    a launch script in a ``run:`` block is a second launcher whose
    assertions no tier-1 run sees."""
    blocks = ci_run_blocks()
    assert any("python -m repro.service --help" in b for b in blocks)
    assert [b for b in blocks if HAND_LAUNCH.search(b)] == []


def test_every_terp_topology_value_names_a_topology():
    from repro.topology import TOPOLOGIES

    named = set()
    for doc in (CI, os.path.join(REPO_ROOT, "README.md")):
        with open(doc, encoding="utf-8") as fh:
            named.update(re.findall(r"TERP_TOPOLOGY=(\w*)", fh.read()))
    assert {"cluster", "pair"} <= named
    assert named <= set(TOPOLOGIES), sorted(named - set(TOPOLOGIES))


#: A ``benchmarks/`` or ``tests/`` path, and any ``::`` node after it.
CI_PATH = re.compile(r"\b(?:benchmarks|tests)/[\w./-]*(?:::[\w:]+)?")


def test_every_path_ci_names_exists():
    """A step's files exist, and a node it runs by name is a ``def`` or
    a ``class`` of its file."""
    with open(CI, encoding="utf-8") as fh:
        named = set(CI_PATH.findall(fh.read()))
    assert any(n.startswith("benchmarks/terpbench") for n in named)
    missing = []
    for name in sorted(named):
        path, *nodes = name.split("::")
        target = pathlib.Path(REPO_ROOT, path)
        if not target.exists():
            missing.append(name)
        elif nodes and not all(re.search(rf"^\s*(?:def|class) {node}\b",
                                         target.read_text(), re.MULTILINE)
                               for node in nodes):
            missing.append(name)
    assert missing == [], missing
