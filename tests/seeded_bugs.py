"""One-line mutations of the paged KV storage and the radix index.

Each :class:`Mutation` names a method and one line of its source;
:meth:`Mutation.apply` recompiles the method with that line replaced and
monkey-patches it in.  ``tests/test_seeded_bugs.py`` runs the stateful
paged-KV machine (``tests/test_paged_kv_stateful.py``) against each one and
requires the machine to fail, so what the harness catches is measured
rather than assumed.  A mutation whose line no longer exists fails loudly
instead of silently testing nothing.
"""

from __future__ import annotations

import __future__
import inspect
import textwrap
from dataclasses import dataclass

from repro.core.kv_pool import KVPagePool, PagedKVCache, PageTable
from repro.serve.radix import RadixPrefixIndex


@dataclass(frozen=True)
class Mutation:
    name: str
    owner: type
    method: str
    #: A fragment found on exactly one line of the method's source.
    line: str
    #: What that whole line becomes (indentation kept).
    replacement: str

    def mutant(self):
        """The method, recompiled with the one line replaced."""
        function = getattr(self.owner, self.method)
        lines = textwrap.dedent(inspect.getsource(function)).splitlines(keepends=True)
        hits = [i for i, line in enumerate(lines) if self.line in line]
        if len(hits) != 1:
            raise LookupError(f"{self.name}: {self.line!r} is on {len(hits)} lines of "
                              f"{self.owner.__name__}.{self.method}, not 1")
        original = lines[hits[0]]
        indent = original[:len(original) - len(original.lstrip())]
        lines[hits[0]] = indent + self.replacement + "\n"
        code = compile("".join(lines), f"<mutant {self.name}>", "exec",
                       flags=__future__.annotations.compiler_flag, dont_inherit=True)
        namespace: dict = {}
        exec(code, function.__globals__, namespace)
        return namespace[self.method]

    def apply(self, monkeypatch) -> None:
        monkeypatch.setattr(self.owner, self.method, self.mutant())


MUTATIONS = (
    Mutation("skip-refcount-decrement", KVPagePool, "release",
             "self._refcounts[page] -= 1", "pass"),
    Mutation("double-release-in-truncate", PageTable, "trim",
             "pool.release(page)", "pool.release(page); pool.release(page)"),
    Mutation("truncate-keep-off-by-one", PageTable, "trim",
             "keep = -(-covered // pool.page_tokens)", "keep = covered // pool.page_tokens"),
    Mutation("write-shared-tail-without-cow", PageTable, "writable_page",
             "if pool._refcounts[page] > 1:", "if False:"),
    Mutation("fork-keeps-tail-owned", PagedKVCache, "fork",
             "table.tail_owned = False", "pass"),
    Mutation("drop-touch-on-match", RadixPrefixIndex, "match",
             "self._touch(best)", "pass"),
    Mutation("gather-layers-out-of-step", PagedKVCache, "_in_step",
             "if (handle._count, handle._flushed, handle._mirrored) != state:",
             "if False:"),
)
