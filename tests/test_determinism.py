"""Determinism lint over ``src/repro``: the AST rules behind the bit-identical gates.

Every golden digest, fingerprint and persistent result store rests on the
simulator being a pure function of its inputs.  :data:`RULES` names the five
ways that property has broken (or nearly broken) in this repo's history.
One visitor pass per file collects every finding.  The findings under
``src/repro`` must equal :data:`ALLOWED` exactly: a new finding fails, and so
does an entry that no longer matches anything.  A reviewed harmless site is
added to ``ALLOWED`` with its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

GLOBAL_RANDOM = "det-global-random"
UNSEEDED_RANDOM = "det-unseeded-random"
BUILTIN_HASH = "det-builtin-hash"
WALLCLOCK = "det-wallclock"
UNORDERED_ITER = "det-unordered-iter"

#: Each rule: what breaks and how to fix a finding of it.
RULES = {
    GLOBAL_RANDOM: "random.* calls share one ambiently seeded RNG; use random.Random(seed)",
    UNSEEDED_RANDOM: "random.Random() without a seed, or SystemRandom, draws OS entropy",
    BUILTIN_HASH: "hash() of str/bytes is salted per process; use zlib.crc32 or hashlib",
    WALLCLOCK: "time.time(), datetime.now(), os.urandom & co. inject the host clock or entropy",
    UNORDERED_ITER: "a set, glob or os.listdir result has an arbitrary order; iterate sorted(...)",
}

#: (file, rule, stripped source line) -> why the site is harmless.
ALLOWED = {
    (
        "src/repro/engine/cache.py",
        WALLCLOCK,
        "cutoff = None if max_age_seconds is None else time.time() - max_age_seconds",
    ): "temp-reaper age guard: compares host-file mtimes against the host clock; "
    "nothing simulation-visible flows from it",
    (
        "src/repro/obs/ledger.py",
        WALLCLOCK,
        '"t": round(time.time(), 3),',
    ): "ledger record timestamps: operator-facing provenance only; excluded from "
    "fingerprints, digests and ledger summaries",
}

#: Module-level functions of :mod:`random` that use the shared global RNG.
GLOBAL_RANDOM_FNS = frozenset(
    "betavariate choice choices expovariate gammavariate gauss getrandbits lognormvariate"
    " normalvariate paretovariate randbytes randint random randrange sample seed shuffle"
    " triangular uniform vonmisesvariate weibullvariate".split()
)

#: Dotted call targets that read the host clock or OS entropy.
WALLCLOCK_CALLS = frozenset(
    "datetime.date.today datetime.datetime.now datetime.datetime.today"
    " datetime.datetime.utcnow os.urandom secrets.randbits secrets.token_bytes"
    " secrets.token_hex secrets.token_urlsafe time.time time.time_ns uuid.uuid1 uuid.uuid4".split()
)

#: ``x.<method>()`` calls and dotted calls whose result order depends on the filesystem.
FS_ORDER_METHODS = frozenset({"glob", "iglob", "iterdir", "rglob"})
FS_ORDER_CALLS = frozenset({"glob.glob", "glob.iglob", "os.listdir", "os.scandir"})

#: Builtins that consume an iterable without exposing its order.
ORDER_INSENSITIVE = frozenset("all any frozenset len max min set sorted sum".split())


class DeterminismVisitor(ast.NodeVisitor):
    """One pass over a module, collecting ``(rule, line)`` findings."""

    def __init__(self) -> None:
        self.findings: list[tuple[str, int]] = []
        #: local name -> dotted origin, from ``import x [as y]``.
        self.modules: dict[str, str] = {}
        #: local name -> dotted origin, from ``from x import y [as z]``.
        self.names: dict[str, str] = {}
        #: module-level names bound to an unordered expression.
        self.unordered_names: set[str] = set()
        #: iterables consumed by an order-insensitive builtin.
        self.exempt: set[int] = set()

    def dotted(self, node: ast.expr) -> str | None:
        """A call target's dotted import path, if statically known."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.modules.get(node.id) or self.names.get(node.id) or node.id)
        return ".".join(reversed(parts))

    def is_unordered(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.unordered_names
        if isinstance(node, ast.Call):
            dotted = self.dotted(node.func)
            return (
                dotted in {"set", "frozenset"}
                or dotted in FS_ORDER_CALLS
                or isinstance(node.func, ast.Attribute) and node.func.attr in FS_ORDER_METHODS
            )
        return False

    def check_iteration(self, iterable: ast.expr, site: ast.AST) -> None:
        if id(iterable) not in self.exempt and self.is_unordered(iterable):
            self.findings.append((UNORDERED_ITER, site.lineno))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            self.modules[alias.asname or root] = alias.name if alias.asname else root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Module-level NAME = <unordered expr>, so a later `for x in NAME` is caught.
        if node.col_offset == 0 and self.is_unordered(node.value):
            self.unordered_names.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.dotted(node.func)
        module, _, attribute = (dotted or "").rpartition(".")
        rule = None
        if module == "random" and attribute in GLOBAL_RANDOM_FNS:
            rule = GLOBAL_RANDOM
        elif dotted == "random.SystemRandom" or dotted == "random.Random" and not node.args:
            rule = UNSEEDED_RANDOM
        elif dotted in WALLCLOCK_CALLS:
            rule = WALLCLOCK
        elif dotted == "hash":
            rule = BUILTIN_HASH
        if rule is not None:
            self.findings.append((rule, node.lineno))
        # sorted(f(x) for x in some_set) re-establishes an order, and
        # min/sum/any/... never expose one.
        if dotted in ORDER_INSENSITIVE:
            for argument in node.args:
                if isinstance(argument, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    self.exempt.update(id(generator.iter) for generator in argument.generators)
                else:
                    self.exempt.add(id(argument))
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self.check_iteration(node.iter, node)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self.check_iteration(node.iter, node.iter)
        self.generic_visit(node)


def scan(source: str, filename: str = "<fixture>") -> list[tuple[str, int]]:
    """Every ``(rule, line)`` finding in *source*; a parse failure raises."""
    visitor = DeterminismVisitor()
    visitor.visit(ast.parse(source, filename=filename))
    return visitor.findings


def file_findings(relative: str, text: str) -> list[tuple[str, str, str]]:
    """``(file, rule, stripped source line)`` of every finding in one file."""
    lines = text.splitlines()
    return [(relative, rule, lines[line - 1].strip()) for rule, line in scan(text, relative)]


def tree_findings() -> list[tuple[str, str, str]]:
    """``(file, rule, stripped source line)`` of every finding under src/repro."""
    findings = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        findings.extend(file_findings(relative, path.read_text(encoding="utf-8")))
    return findings


def allowlist_mismatch(findings, allowed) -> list[str]:
    """One line per finding not in *allowed* and per entry matching nothing."""
    new = Counter(findings) - Counter(allowed.keys())
    stale = Counter(allowed.keys()) - Counter(findings)
    return [
        f"{path}: {rule}: {line!r} ({RULES[rule]})" for path, rule, line in sorted(new.elements())
    ] + [f"ALLOWED entry matches nothing: {entry}" for entry in sorted(stale)]


def test_tree_findings_equal_the_allowlist():
    problems = allowlist_mismatch(tree_findings(), ALLOWED)
    assert not problems, "\n".join(problems)


SITE = ("src/repro/x.py", BUILTIN_HASH, "seed = hash('x')")


def test_allowed_site_passes():
    findings = file_findings("src/repro/x.py", "seed = hash('x')\n")
    assert findings == [SITE]
    assert allowlist_mismatch(findings, {SITE: "reason"}) == []


def test_stale_allowlist_entry_fails():
    findings = file_findings("src/repro/x.py", "seed = 1\n")
    assert allowlist_mismatch(findings, {SITE: "reason"}) == [
        f"ALLOWED entry matches nothing: {SITE}"
    ]


def test_allowlist_entry_with_unknown_rule_fails():
    # A misspelt rule covers nothing: the finding stays and the entry is stale.
    misspelt = ("src/repro/x.py", "det-no-such-rule", "seed = hash('x')")
    findings = file_findings("src/repro/x.py", "seed = hash('x')\n")
    assert allowlist_mismatch(findings, {misspelt: "reason"}) == [
        f"src/repro/x.py: det-builtin-hash: \"seed = hash('x')\" ({RULES[BUILTIN_HASH]})",
        f"ALLOWED entry matches nothing: {misspelt}",
    ]


def test_allowlist_entry_covers_one_site():
    # Neither another line nor a second copy of the allowed line is covered.
    source = "seed = hash('x')\nother = hash('y')\nseed = hash('x')\n"
    findings = file_findings("src/repro/x.py", source)
    assert len(findings) == 3
    problems = allowlist_mismatch(findings, {SITE: "reason"})
    assert [problem.partition(" (")[0] for problem in problems] == [
        "src/repro/x.py: det-builtin-hash: \"other = hash('y')\"",
        "src/repro/x.py: det-builtin-hash: \"seed = hash('x')\"",
    ]


#: Sources the lint flags, with the ``(rule, line)`` findings expected of each.
FLAGGED = {
    "global-random-call": ("import random\nx = random.randint(0, 3)\n", [(GLOBAL_RANDOM, 2)]),
    "global-random-from-import": (
        "from random import shuffle\nshuffle([1, 2])\n",
        [(GLOBAL_RANDOM, 2)],
    ),
    "unseeded-random": ("import random\nrng = random.Random()\n", [(UNSEEDED_RANDOM, 2)]),
    "system-random": ("import random\nrng = random.SystemRandom()\n", [(UNSEEDED_RANDOM, 2)]),
    "builtin-hash": ("seed = hash('gcc')\n", [(BUILTIN_HASH, 1)]),
    "time-time": ("import time\nt = time.time()\n", [(WALLCLOCK, 2)]),
    "os-urandom": ("import os\nb = os.urandom(4)\n", [(WALLCLOCK, 2)]),
    "datetime-now": ("from datetime import datetime\nd = datetime.now()\n", [(WALLCLOCK, 2)]),
    "uuid4": ("import uuid\nu = uuid.uuid4()\n", [(WALLCLOCK, 2)]),
    "set-literal": ("for x in {1, 2}:\n    pass\n", [(UNORDERED_ITER, 1)]),
    "module-level-set-name": (
        "names = {'a', 'b'}\nfor n in names:\n    pass\n",
        [(UNORDERED_ITER, 2)],
    ),
    "set-comprehension": ("values = [v for v in set([1, 2])]\n", [(UNORDERED_ITER, 1)]),
    "glob-glob": ("import glob\nfor p in glob.glob('*.json'):\n    pass\n", [(UNORDERED_ITER, 2)]),
    "os-listdir": ("import os\nfor p in os.listdir('.'):\n    pass\n", [(UNORDERED_ITER, 2)]),
    "path-glob": (
        "from pathlib import Path\nfor p in Path('.').glob('*'):\n    pass\n",
        [(UNORDERED_ITER, 2)],
    ),
}

#: Sources the lint must leave alone.
CLEAN = {
    "seeded-random": "import random\nimport zlib\n"
    "rng = random.Random(7 ^ zlib.crc32(b'gcc'))\nx = rng.randint(0, 3)\n",
    # Duration measurement is legitimate; only absolute wall-clock is flagged.
    "perf-counter": "import time\nt = time.perf_counter()\n",
    "sorted-iteration": "import glob\nfor p in sorted(glob.glob('*.json')):\n    pass\n"
    "for x in sorted({1, 2}):\n    pass\n",
    "order-insensitive-consumers": "names = {'a', 'b'}\ntotal = sum(1 for _ in names)\n"
    "best = min(x for x in {3, 1})\nordered = sorted(x + 1 for x in set([1, 2]))\n"
    "present = any(x > 1 for x in {1, 2})\n",
    "membership-test": "allowed = {'a', 'b'}\nok = 'a' in allowed\n",
    # self._rng.random() is an *instance* method, not the module-level RNG.
    "method-named-like-rng": "class T:\n    def __init__(self, rng):\n        self._rng = rng\n"
    "    def draw(self):\n        return self._rng.random()\n",
}


@pytest.mark.parametrize("source, expected", FLAGGED.values(), ids=FLAGGED)
def test_flagged(source, expected):
    assert scan(source) == expected


@pytest.mark.parametrize("source", CLEAN.values(), ids=CLEAN)
def test_clean(source):
    assert scan(source) == []
