"""One-line mutations of the paged KV storage, the radix index, the
scheduler's decode batch, the attention kernel, the chunk forward's causal
mask, the eviction slab and the 2DRP fault sampler.

Each :class:`Mutation` names a method (or a module function) and one line of
its source; :meth:`Mutation.apply` recompiles it with that line replaced and
monkey-patches it in.  ``tests/test_seeded_bugs.py`` runs each mutation's
harness against it — the stateful paged-KV machine
(``tests/test_paged_kv_stateful.py``), the generated serving run of
``tests/test_decode_batch.py`` or the generated call sequences of
``tests/test_aerp_differential.py``, or the sampler's statistical test in
``tests/test_bitops.py`` — and requires the harness to fail with
the mutation's :attr:`~Mutation.kills_with` (a harness that crashes on
correct code kills nothing), so what it catches is measured rather than
assumed.  A mutation whose line no longer exists fails loudly instead of
silently testing nothing.
"""

from __future__ import annotations

import __future__
import inspect
import textwrap
from dataclasses import dataclass

from repro.core import kv_cache
from repro.core.kv_cache import AERPArena
from repro.core.kv_pool import KVPagePool, PagedKVCache, PageTable
from repro.llm.model import DecoderLM
from repro.memory import bitops
from repro.serve.session import FunctionalSession
from repro.serve.radix import RadixPrefixIndex
from repro.serve.scheduler import Scheduler


@dataclass(frozen=True)
class Mutation:
    name: str
    owner: object  # a class, or a module for a module-level function
    method: str
    #: A fragment found on exactly one line of the method's source.
    line: str
    #: What that whole line becomes (indentation kept).
    replacement: str
    #: The harness that must kill it: ``"paged"`` (the stateful paged-KV
    #: machine), ``"decode-batch"`` (the generated serving run), ``"aerp"``
    #: (the AERP differential test's generated call sequences) or
    #: ``"sampler"`` (the fault sampler's statistical test).
    harness: str = "paged"
    #: The exception the harness must fail with: its own assertion, unless
    #: the mutant breaks an invariant the code itself checks first.
    kills_with: type = AssertionError

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
             "pool.release(page)", "pool.release(page); pool.release(page)",
             kills_with=ValueError),
    Mutation("truncate-keep-off-by-one", PageTable, "trim",
             "keep = -(-covered // pool.page_tokens)", "keep = covered // pool.page_tokens",
             kills_with=ValueError),
    Mutation("write-shared-tail-without-cow", PageTable, "writable_page",
             "if pool._refcounts[page] > 1:", "if False:"),
    Mutation("fork-keeps-tail-owned", PagedKVCache, "fork",
             "table.tail_owned = False", "pass"),
    Mutation("drop-touch-on-match", RadixPrefixIndex, "match",
             "self._touch(best)", "pass"),
    Mutation("gather-layers-out-of-step", PageTable, "take_row",
             "values[layer, row:row + 1, :, :count], layer)",
             "values[layer, row:row + 1, :, :count], 0)"),
    Mutation("cap-decodes-skips-invalidation", FunctionalSession, "cap_decodes",
             "self.scheduler.invalidate()", "pass", harness="decode-batch"),
    Mutation("preempt-leaves-decode-row", Scheduler, "preempt",
             "self._leave(state)", "self.running.pop(state.request_id, None)",
             harness="decode-batch"),
    Mutation("stale-slab-row-after-move", KVPagePool, "_swap_rows",
             "slab[:, [a, b], :, :n_tokens] = slab[:, [b, a], :, :n_tokens]", "pass",
             harness="decode-batch"),
    Mutation("attend-drops-mask", DecoderLM, "_attend",
             "np.copyto(scores, -np.inf, where=masked)", "pass", harness="decode-batch"),
    Mutation("chunk-mask-off-by-one", DecoderLM, "forward_chunks",
             "causal = np.arange(position + size) > position + np.arange(size)[:, None]",
             "causal = np.arange(position + size) > position + 1 + np.arange(size)[:, None]",
             harness="decode-batch"),
    Mutation("victim-mask-loses-recent-window", AERPArena, "_evict",
             "eligible = non_sink & (positions <= oldest_recent)", "eligible = non_sink.copy()",
             harness="aerp"),
    Mutation("ties-by-entry-index", kv_cache, "first_lowest",
             "return (tokens + ~lowest * _NOT_LOWEST).argmin(axis=2)",
             "return key.argmin(axis=2)", harness="aerp"),
    Mutation("window-leaver-stays-protected", AERPArena, "_append",
             "flat._protect[rows * self.width + flat._ring[cell]] = 0.0", "pass",
             harness="aerp"),
    Mutation("corrupted-x-not-recomputed", AERPArena, "inject_faults",
             "self._pending[x_at] = True", "pass", harness="aerp"),
    Mutation("msb-fails-at-lsb-rate", bitops, "sample_bit_faults",
             "for byte_bits, rate in zip((_MSB_BITS, _LSB_BITS), class_rates):",
             "for byte_bits, rate in zip((_MSB_BITS, _LSB_BITS), class_rates[::-1]):",
             harness="sampler"),
    Mutation("decay-sets-failed-bits", bitops, "sample_bit_faults",
             "np.bitwise_and.at(bits, element, ~mask)", "np.bitwise_or.at(bits, element, mask)",
             harness="sampler"),
)
