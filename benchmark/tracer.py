"""Span tracer for the traced benchmark run.

Wraps the public functions of each sbfe layer where the calling module looks
them up, records one span per call (name, start, end, parent, request id),
and accumulates self time (a span's length minus the time its child spans
cover) and call counts per layer.  Spans are kept in memory, up to a cap,
and written out when the run ends.  Everything is single-threaded, so spans
nest strictly and one stack is enough.
"""
from __future__ import annotations

import dataclasses
import functools
from array import array
from time import perf_counter

SPAN_CAP = 400_000  # spans kept for the trace file; totals cover every span


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.self_time: list = []
        self.total_time: list = []
        self.calls: list = []
        self.counts: dict = {}
        self.request = -1
        self._stack: list = []  # [name id, start, child time, span index]
        self._patches: list = []
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_request = array("i")
        self.dropped = 0

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.self_time.append(0.0)
            self.total_time.append(0.0)
            self.calls.append(0)
        return nid

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def skip(self, seconds: float) -> None:
        """Leave ``seconds`` just spent outside the program (the benchmark's
        reference kernel) out of every open span."""
        for frame in self._stack:
            frame[1] += seconds

    def top(self):
        return self.names[self._stack[-1][0]] if self._stack else None

    def wrap(self, name: str, fn, *, on_result=None, outermost=False):
        """Callable that records a span named ``name`` around ``fn``.

        ``on_result(result)`` runs after the span closes.  With ``outermost``
        a call made while a span of the same name is open records nothing, so
        nested calls inside one layer count once.
        """
        nid = self._intern(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            start = perf_counter()
            index = len(self._span_start)
            if index < SPAN_CAP:
                self._span_start.append(start)
                self._span_end.append(start)
                self._span_name.append(nid)
                self._span_parent.append(stack[-1][3] if stack else -1)
                self._span_request.append(self.request)
            else:
                index = -1
                self.dropped += 1
            frame = [nid, start, 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                length = end - frame[1]  # skip() may have moved the start
                self.self_time[nid] += length - frame[2]
                self.total_time[nid] += length
                self.calls[nid] += 1
                if stack:
                    stack[-1][2] += length
                if index >= 0:
                    self._span_end[index] = end
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute) by
        a traced wrapper; ``restore`` puts the original back."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kwargs))

    def patch_with(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_time[nid]

    def inclusive(self) -> dict:
        """Seconds inside spans of each name, children included."""
        return dict(zip(self.names, self.total_time))

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write_spans(self, path) -> None:
        """One CSV row per kept span; times in ns from the first span."""
        t0 = self._span_start[0] if self._span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans kept {len(self._span_start)}, dropped past cap {self.dropped}\n")
            fh.write("span,name,start_ns,end_ns,parent,request\n")
            for k in range(len(self._span_start)):
                fh.write(
                    f"{k},{self.names[self._span_name[k]]},"
                    f"{round((self._span_start[k] - t0) * 1e9)},"
                    f"{round((self._span_end[k] - t0) * 1e9)},"
                    f"{self._span_parent[k]},{self._span_request[k]}\n"
                )


def install(tracer: Tracer, sbfe) -> None:
    """Wrap every layer boundary the workloads cross.

    ``sbfe`` is a namespace holding the imported sbfe modules.  Each wrapper
    sits where the caller looks the function up: module globals of the
    calling module, or class attributes for methods.
    """
    cli, core, utility, policies = sbfe.cli, sbfe.core, sbfe.utility, sbfe.policies
    problems, verify, instances = sbfe.problems, sbfe.verify, sbfe.instances

    # core: the optimum and the exact walk as cli and verify see them, and
    # the certificate check as the optimum (core) and the baseline stop
    # rule (policies) look it up.
    for mod in (cli, verify):
        tracer.patch(mod, "optimal_expected_cost", "core.optimum")
        tracer.patch(mod, "expected_cost", "core.expected_cost")
    tracer.patch(verify, "certificate_table", "core.certificate_table")

    # a certificate check made directly by the optimum is one state visited
    original_check = core.__dict__["certificate_check"]
    check_span = tracer.wrap("core.certificate_check", original_check)

    def certificate_check(f, b):
        if tracer.top() == "core.optimum":
            tracer.count("core.optimum_states")
        return check_span(f, b)

    tracer.patch_with(core, "certificate_check", certificate_check)
    tracer.patch(policies, "certificate_check", "core.certificate_check")

    # utility: one span per call of a top-level utility's fn.  Constructors
    # are wrapped where they are looked up; a constructor called inside
    # another (ThresholdSet.utility builds threshold utilities) is skipped,
    # so each evaluation of the combined utility counts once.
    depth = [0]

    def traced_builder(original):
        @functools.wraps(original)
        def build(*args, **kwargs):
            depth[0] += 1
            try:
                g = original(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                g = dataclasses.replace(g, fn=tracer.wrap("utility.fn", g.fn))
            return g

        return build

    for mod, attrs in (
        (cli, ("threshold_utility", "cdnf_utility", "truth_table_utility", "ranking_utility")),
        (problems, ("threshold_utility", "cdnf_utility", "ranking_utility")),
    ):
        for attr in attrs:
            tracer.patch_with(mod, attr, traced_builder(mod.__dict__[attr]))
    tracer.patch_with(
        problems.ThresholdSet, "utility", traced_builder(problems.ThresholdSet.__dict__["utility"])
    )

    for cls in (
        utility.ThresholdFormula,
        utility.CdnfFormula,
        utility.TruthTable,
        problems.ThresholdSet,
        problems.RankingInstance,
    ):
        tracer.patch(cls, "certificate", "utility.certificate", outermost=True)

    # policies: one span per decision; a step is a decision that buys a test.
    def stepper(name):
        def on_result(i):
            if i is not None:
                tracer.count(name)

        return on_result

    tracer.patch(policies.GreedyPolicy, "next_test", "policies.greedy",
                 on_result=stepper("policies.greedy_steps"))
    tracer.patch(policies.DualGreedyPolicy, "next_test", "policies.adg",
                 on_result=stepper("policies.adg_steps"))
    tracer.patch(policies.DualGreedyPolicy, "advance", "policies.adg")
    tracer.patch(policies.FixedOrderPolicy, "next_test", "policies.baseline",
                 on_result=stepper("policies.baseline_steps"))

    # problems: the functions as the benchmark (module attributes) and cli
    # (knapsack rows) call them; tests bought come from each returned trace.
    def bought_from_trace(result):
        tracer.count("problems.tests_bought", len(result[1].tested))

    def bought_items(result):
        tracer.count("problems.tests_bought", len(result[0]))

    for attr in ("evaluate_threshold_greedy", "evaluate_threshold_adg"):
        tracer.patch(problems, attr, "problems.threshold", on_result=bought_from_trace)
    tracer.patch(problems, "evaluate_cdnf", "problems.cdnf", on_result=bought_from_trace)
    tracer.patch(problems, "simultaneous_thresholds", "problems.simultaneous",
                 on_result=bought_from_trace)
    tracer.patch(problems, "rank_linear_functions", "problems.ranking",
                 on_result=bought_from_trace)
    tracer.patch(problems, "min_knapsack_adg", "problems.knapsack", on_result=bought_items)
    tracer.patch(cli, "min_knapsack_adg", "problems.knapsack", on_result=bought_items)

    # verify: the suites as cli looks them up.
    for attr, name in (
        ("check_axioms", "verify.axioms"),
        ("check_goal_certificate", "verify.goal_certificate"),
        ("check_dual_feasibility", "verify.dual_feasibility"),
        ("observed_alpha", "verify.observed_alpha"),
        ("ratio_vs_opt", "verify.ratio_vs_opt"),
    ):
        tracer.patch(cli, attr, name)

    # instances: generators (the benchmark and cli's verify batteries call
    # them as module attributes) and the file loader cli uses.
    for attr in (
        "generate_instance", "gen_threshold", "gen_cdnf", "gen_threshold_set",
        "gen_linear_system", "gen_knapsack", "gen_probabilities", "gen_costs",
        "threshold_battery", "cdnf_battery", "truth_table_battery",
        "disjunction_battery", "threshold_set_battery",
    ):
        tracer.patch(instances, attr, "instances.generate", outermost=True)
    tracer.patch(instances, "load", "instances.load")
