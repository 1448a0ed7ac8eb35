"""Per-layer tracing from outside the package.

Each span wraps one public mecfl function at every name its callers look it
up by. ``from .learning import train`` copies the binding into the caller's
module, so wrapping ``mecfl.learning.train`` alone would see nothing; the
wrapper goes on ``mecfl.orchestrator.train`` instead. A site that no longer
exists (renamed or removed by a refactor) is recorded as absent, and every
metric whose sites are all absent is reported as ``None``.

Spans nest: a span opened while another is open is a child of it. Time in
spans opened at depth 0 is summed separately, so the caller can compute
its own self time as wall time minus that sum.
"""

from __future__ import annotations

import importlib
import inspect
import time

perf_counter = time.perf_counter

# metric prefix -> the sites ("module" or "module:Class", attribute) it wraps
SPAN_SITES = {
    "learning.split_dataset": [("mecfl.orchestrator", "split_dataset")],
    "learning.concat_datasets": [("mecfl.orchestrator", "concat_datasets")],
    "learning.shuffle_dataset": [("mecfl.orchestrator", "shuffle_dataset")],
    "learning.evaluate_loss": [("mecfl.orchestrator", "evaluate_loss")],
    "learning.aggregate": [("mecfl.orchestrator", "aggregate")],
    "optimizer.solve_gamma": [("mecfl.orchestrator", "solve_gamma"),
                              ("mecfl.verify", "solve_gamma")],
    "optimizer.solve_delta": [("mecfl.orchestrator", "solve_delta"),
                              ("mecfl.verify", "solve_delta")],
    "optimizer.solve_uplink": [("mecfl.orchestrator", "solve_uplink"),
                               ("mecfl.verify", "solve_uplink")],
    "optimizer.update_multipliers": [("mecfl.orchestrator", "update_multipliers")],
    "types.validate_allocation": [("mecfl.types", "validate_allocation")],
    "link.base_rate": [("mecfl.optimizer", "base_rate"), ("mecfl.costs", "base_rate"),
                       ("mecfl.verify", "base_rate")],
    "costs.local_time": [("mecfl.costs", "local_time")],
    "costs.total_energy": [("mecfl.costs", "total_energy")],
    "costs.edge_time_total": [("mecfl.costs", "edge_time_total")],
    "io.synthesize_users": [("mecfl.io", "synthesize_users")],
    "io.load_test_dataset": [("mecfl.io", "load_test_dataset")],
    "io.write_metrics_csv": [("mecfl.io", "write_metrics_csv")],
    "io.write_alloc_trace": [("mecfl.io", "write_alloc_trace")],
    "verify.check_gamma": [("mecfl.verify", "check_gamma_closed_form")],
    "verify.check_delta": [("mecfl.verify", "check_delta_closed_form")],
    "verify.check_uplink": [("mecfl.verify", "check_uplink_closed_form")],
    "verify.check_curvature": [("mecfl.verify", "check_curvature_and_monotonicity")],
    "oracle.grid_minimize": [("mecfl.verify", "grid_minimize")],
    "oracle.simplex_minimize_maxtime": [("mecfl.verify", "simplex_minimize_maxtime")],
    "oracle.bisect_root": [("mecfl.verify", "bisect_root")],
    "oracle.finite_diff": [("mecfl.verify", "finite_diff")],
}
TRAIN_SITE = ("mecfl.orchestrator", "train")
DATASET_INIT_SITE = ("mecfl.learning:Dataset", "__post_init__")


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self):
        self._undo = []
        self.absent: list[str] = []

    def wrap(self, site, make_wrapper) -> bool:
        owner_name, attr = site
        owner = _resolve(owner_name)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{owner_name}.{attr}")
            return False
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False


class Span:
    __slots__ = ("calls", "seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0


class Tracer:
    """Spans and counters for one traced run; ``reset`` starts the next."""

    def __init__(self):
        self._spans: dict[tuple[str, tuple], Span] = {}  # (metric, site) of wrapped sites
        self._counters: set[str] = set()  # installed counters that are not spans
        self._depth = 0
        self._edge_dataset = None
        self.top_level_s = 0.0
        self.sgd_steps = 0
        self.dataset_objects = 0

    def reset(self) -> None:
        for span in self._spans.values():
            span.calls = 0
            span.seconds = 0.0
        self._edge_dataset = None
        self.top_level_s = 0.0
        self.sgd_steps = 0
        self.dataset_objects = 0

    # -- installation ---------------------------------------------------

    def install(self, patches: Patches) -> None:
        for metric, sites in SPAN_SITES.items():
            after = self._hold_edge_dataset if metric == "learning.shuffle_dataset" else None
            for site in sites:
                span = Span()
                if patches.wrap(site, lambda f, s=span, a=after: self._timed(f, s, a)):
                    self._spans[(metric, site)] = span
        if self.present("learning.shuffle_dataset"):
            local, edge = Span(), Span()
            if patches.wrap(TRAIN_SITE, lambda f: self._train(f, local, edge)):
                self._spans[("learning.train.local", TRAIN_SITE)] = local
                self._spans[("learning.train.edge", TRAIN_SITE)] = edge
        if patches.wrap(DATASET_INIT_SITE, self._count_dataset):
            self._counters.add("learning.dataset_objects")

    def _timed(self, original, span, after=None):
        def wrapper(*args, **kwargs):
            self._depth += 1
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._depth -= 1
                span.calls += 1
                span.seconds += elapsed
                if self._depth == 0:
                    self.top_level_s += elapsed
            if after is not None:
                after(result)
            return result
        return wrapper

    def _hold_edge_dataset(self, dataset) -> None:
        # The orchestrator shuffles only the pooled offloaded data, and
        # trains the edge model on exactly that object. Holding the
        # reference (not its id(), which a freed object can pass on) lets
        # the train wrapper tell the edge call from the local ones.
        self._edge_dataset = dataset

    def _train(self, original, local_span, edge_span):
        local = self._timed(original, local_span)
        edge = self._timed(original, edge_span)
        read_args = _argument_reader(original, ("d", "epochs", "batch_size"))
        if read_args is not None:
            self._counters.add("learning.sgd_steps")

        def wrapper(*args, **kwargs):
            if read_args is not None:
                data, epochs, batch_size = read_args(args, kwargs)
                # train() runs ceil(n / batch_size) mini-batch steps per epoch
                self.sgd_steps += epochs * -(-data.sample_count // batch_size)
            held = self._edge_dataset
            is_edge = held is not None and (any(a is held for a in args)
                                            or any(v is held for v in kwargs.values()))
            return (edge if is_edge else local)(*args, **kwargs)
        return wrapper

    def _count_dataset(self, original):
        def wrapper(*args, **kwargs):
            self.dataset_objects += 1
            return original(*args, **kwargs)
        return wrapper

    # -- readout --------------------------------------------------------

    def present(self, metric: str) -> bool:
        return metric in self._counters or any(name == metric for name, _ in self._spans)

    def _select(self, metric: str, site=None):
        return [span for (name, where), span in self._spans.items()
                if name == metric and site in (None, where)]

    def calls(self, metric: str, site=None):
        """Calls summed over the metric's wrapped sites (or one site); None if none is wrapped."""
        spans = self._select(metric, site)
        return sum(span.calls for span in spans) if spans else None

    def seconds(self, metric: str):
        spans = self._select(metric)
        return sum(span.seconds for span in spans) if spans else None


def _argument_reader(function, names):
    """Reader of the named arguments of ``function`` from (args, kwargs), or None."""
    try:
        params = list(inspect.signature(function).parameters.values())
    except (TypeError, ValueError):
        return None
    index = {p.name: i for i, p in enumerate(params)}
    if any(name not in index for name in names):
        return None
    defaults = {p.name: p.default for p in params}

    def read(args, kwargs):
        return tuple(args[index[n]] if index[n] < len(args) else kwargs.get(n, defaults[n])
                     for n in names)
    return read
