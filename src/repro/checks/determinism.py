"""Determinism lint: the AST rules behind the repo's bit-identical gates.

Every golden digest, fingerprint and persistent cache store rests on the
simulator being a pure function of its inputs.  These rules flag the ways
that property has broken (or nearly broken) in this repo's history:

* ``det-global-random`` — module-level ``random.*`` calls share one global,
  ambiently seeded RNG; runs stop being a function of the job.
* ``det-unseeded-random`` — ``random.Random()`` without an explicit seed
  draws its state from OS entropy (``SystemRandom`` always does).
* ``det-builtin-hash`` — builtin ``hash()`` on strings/bytes is salted per
  process (PYTHONHASHSEED), the exact bug PR 2 fixed in the trace and
  jitter RNG seeding; use ``zlib.crc32`` or ``hashlib`` instead.
* ``det-wallclock`` — ``time.time()``, ``datetime.now()``, ``os.urandom``
  and friends inject the host's clock or entropy into the run.
* ``det-unordered-iter`` — iterating a ``set`` / ``glob`` / ``os.listdir``
  result leaks arbitrary ordering into whatever the loop builds; anything
  that flows into digests, fingerprints, cache writes or rendered reports
  must iterate ``sorted(...)``.

The lint is deliberately scope-coarse: it flags every occurrence under the
scanned tree and relies on reasoned inline
``# repro: allow(<rule>) — <why this one is safe>`` suppressions for the
(rare, reviewed) sites where the pattern is harmless.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.findings import Finding
from repro.checks.registry import Rule, register
from repro.checks.source import SourceFile

__all__ = [
    "DET_BUILTIN_HASH",
    "DET_GLOBAL_RANDOM",
    "DET_UNORDERED_ITER",
    "DET_UNSEEDED_RANDOM",
    "DET_WALLCLOCK",
]

DET_GLOBAL_RANDOM = "det-global-random"
DET_UNSEEDED_RANDOM = "det-unseeded-random"
DET_BUILTIN_HASH = "det-builtin-hash"
DET_WALLCLOCK = "det-wallclock"
DET_UNORDERED_ITER = "det-unordered-iter"

#: Module-level functions of :mod:`random` that use the shared global RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: Dotted call targets that read the host clock or OS entropy.
_WALLCLOCK_CALLS = frozenset(
    {
        "datetime.date.today",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "os.urandom",
        "secrets.randbits",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "time.time",
        "time.time_ns",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: ``x.<method>()`` calls whose result order depends on the filesystem.
_FS_ORDER_METHODS = frozenset({"glob", "iglob", "iterdir", "rglob"})

#: Dotted call targets whose result order depends on the filesystem.
_FS_ORDER_CALLS = frozenset({"glob.glob", "glob.iglob", "os.listdir", "os.scandir"})

#: Builtins that consume an iterable without exposing its order.
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"all", "any", "frozenset", "len", "max", "min", "set", "sorted", "sum"}
)


class _DeterminismVisitor(ast.NodeVisitor):
    """One pass over a module, accumulating findings."""

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.findings: list[Finding] = []
        #: local alias -> real module name, for ``import x``/``import x as y``.
        self.module_aliases: dict[str, str] = {}
        #: local name -> dotted origin, for ``from x import y [as z]``.
        self.from_imports: dict[str, str] = {}
        #: module-level names bound to an unordered expression.
        self.unordered_names: set[str] = set()
        #: comprehension iterables exempted by an order-insensitive consumer.
        self._exempt: set[int] = set()

    # ------------------------------------------------------------- helpers

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.source.relative,
                line=getattr(node, "lineno", 0),
                message=message,
            )
        )

    def _dotted(self, node: ast.expr) -> str | None:
        """Resolve a call target to its dotted import path, if statically known."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        if base in self.module_aliases:
            parts.append(self.module_aliases[base])
        elif base in self.from_imports:
            parts.append(self.from_imports[base])
        else:
            parts.append(base)
        return ".".join(reversed(parts))

    def _is_unordered(self, node: ast.expr) -> bool:
        """Does *node* evaluate to an arbitrarily ordered iterable?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name) and node.id in self.unordered_names:
            return True
        if isinstance(node, ast.Call):
            dotted = self._dotted(node.func)
            if dotted in {"set", "frozenset"} or dotted in _FS_ORDER_CALLS:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _FS_ORDER_METHODS
            ):
                return True
        return False

    def _unordered_label(self, node: ast.expr) -> str:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set"
        if isinstance(node, ast.Name):
            return f"{node.id} (bound to an unordered value at module level)"
        if isinstance(node, ast.Call):
            dotted = self._dotted(node.func)
            if dotted in {"set", "frozenset"}:
                return f"{dotted}(...)"
            if dotted in _FS_ORDER_CALLS:
                return f"{dotted}(...)"
            if isinstance(node.func, ast.Attribute):
                return f".{node.func.attr}(...)"
        return "an unordered iterable"

    def _check_iteration(self, iterable: ast.expr, site: ast.AST) -> None:
        if id(iterable) in self._exempt:
            return
        if self._is_unordered(iterable):
            self._flag(
                DET_UNORDERED_ITER,
                site,
                f"iteration over {self._unordered_label(iterable)} has no "
                "deterministic order; wrap it in sorted(...) before anything "
                "ordering-visible (digests, fingerprints, cache writes, reports)",
            )

    # ------------------------------------------------------------- imports

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.from_imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # ----------------------------------------------------------- bindings

    def visit_Assign(self, node: ast.Assign) -> None:
        # Track module-level NAME = <unordered expr> so later `for x in NAME`
        # is caught; one level of indirection is enough for this codebase.
        if node.col_offset == 0 and self._is_unordered(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.unordered_names.add(target.id)
        self.generic_visit(node)

    # -------------------------------------------------------------- calls

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)

        if dotted is not None:
            module, _, attribute = dotted.rpartition(".")
            if module == "random" and attribute in _GLOBAL_RANDOM_FNS:
                self._flag(
                    DET_GLOBAL_RANDOM,
                    node,
                    f"random.{attribute}() uses the shared, ambiently seeded "
                    "global RNG; construct random.Random(seed) from job state "
                    "instead",
                )
            elif dotted == "random.SystemRandom":
                self._flag(
                    DET_UNSEEDED_RANDOM,
                    node,
                    "random.SystemRandom draws from OS entropy and can never "
                    "be reproduced; use random.Random(seed)",
                )
            elif dotted == "random.Random" and not node.args:
                self._flag(
                    DET_UNSEEDED_RANDOM,
                    node,
                    "random.Random() without an explicit seed argument is "
                    "seeded from OS entropy; derive the seed from job state",
                )
            elif dotted in _WALLCLOCK_CALLS:
                self._flag(
                    DET_WALLCLOCK,
                    node,
                    f"{dotted}() injects the host clock/entropy into the run; "
                    "results must be a pure function of the job",
                )
            elif dotted == "hash":
                self._flag(
                    DET_BUILTIN_HASH,
                    node,
                    "builtin hash() is salted per process for str/bytes "
                    "(PYTHONHASHSEED); use zlib.crc32 or hashlib for anything "
                    "that feeds seeding, fingerprints or digests",
                )

        # Comprehension arguments of order-insensitive consumers are exempt
        # from the unordered-iteration rule: sorted(f(x) for x in some_set)
        # re-establishes an order, and min/sum/any/... never expose one.
        if dotted in _ORDER_INSENSITIVE_CONSUMERS:
            for argument in node.args:
                if isinstance(argument, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    for generator in argument.generators:
                        self._exempt.add(id(generator.iter))
                else:
                    self._exempt.add(id(argument))
        self.generic_visit(node)

    # ---------------------------------------------------------- iteration

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter, node.iter)
        self.generic_visit(node)


def _check_determinism(source: SourceFile) -> Iterator[Finding]:
    visitor = _DeterminismVisitor(source)
    visitor.visit(source.tree)
    yield from visitor.findings


def _source_rule(rule_id: str, description: str) -> None:
    # All five determinism rules share one visitor pass; each registered rule
    # filters the shared findings so `--rule det-wallclock` behaves as named.
    def check(source: SourceFile, rule_id: str = rule_id) -> Iterator[Finding]:
        for finding in _check_determinism(source):
            if finding.rule == rule_id:
                yield finding

    register(Rule(rule_id=rule_id, description=description, check_source=check))


_source_rule(
    DET_GLOBAL_RANDOM,
    "module-level random.* calls use the shared global RNG",
)
_source_rule(
    DET_UNSEEDED_RANDOM,
    "random.Random()/SystemRandom without an explicit seed is OS-entropy seeded",
)
_source_rule(
    DET_BUILTIN_HASH,
    "builtin hash() is per-process salted; never seed/fingerprint/digest with it",
)
_source_rule(
    DET_WALLCLOCK,
    "time.time()/datetime.now()/os.urandom inject host clock or entropy",
)
_source_rule(
    DET_UNORDERED_ITER,
    "iteration over set/glob/listdir results has no deterministic order",
)
