"""Shared helpers for the experiment modules."""

from __future__ import annotations

from repro.accelerator.accelerator import EdgeSystem, SimulationResult
from repro.core.refresh import TwoDRefreshPolicy
from repro.registry import resolve

#: Interval scale applied to the 2DRP refresh settings in the *functional*
#: (tiny-model) experiments.  With the physical charge-decay fault model the
#: tiny models tolerate the paper's intervals directly, so the scale is 1.0;
#: it is kept as a knob for sensitivity studies (a 2-layer model has far less
#: redundancy than a 7B model, so the symmetric bit-flip model would need a
#: smaller scale to sit at the same point of the Figure 8 tolerance curve).
TINY_REFRESH_SCALE = 1.0


def tiny_2drp_policy(scale: float = TINY_REFRESH_SCALE) -> TwoDRefreshPolicy:
    """The 2DRP policy operated at the tiny-model fault-rate operating point."""
    return TwoDRefreshPolicy.paper_setting(scale=scale)

#: Per-dataset KV budgets used by the hardware experiments (Section 7.1).
HARDWARE_BUDGETS: dict[str, int] = {
    "lambada": 128,
    "triviaqa": 1024,
    "qasper": 1024,
    "pg19": 2048,
}

#: Model shapes evaluated by the end-to-end hardware experiments.
HARDWARE_MODELS: tuple[str, ...] = ("llama2-7b", "llama2-13b", "llama3.2-3b", "mistral-7b")


def simulate_system(system: EdgeSystem | str, model_name: str, dataset: str,
                    batch_size: int | None = None) -> SimulationResult:
    """Simulate one system on one (model, dataset) pair with paper settings.

    ``system`` accepts either a built :class:`EdgeSystem` or a registry spec
    string (``"kelle+edram:kv_budget=1024"``); ``model_name`` and ``dataset``
    resolve through the ``model`` and ``trace`` registries.
    """
    model = resolve("model", model_name)
    trace = resolve("trace", dataset)
    if batch_size is not None:
        trace = trace.with_batch_size(batch_size)
    return resolve("system", system).simulate(model, trace)
