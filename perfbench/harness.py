"""Run one workload, check it, and print its metrics (see run.py)."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from clock import PROBE_REFERENCE_S, probe
from tracer import Tracer
from workloads import WORKLOADS, Flow, digest

MIN_SETUP_RUNS = 3
MIN_SETUP_SECONDS = 2.0
MAX_SETUP_RUNS = 40
# Each segment's time is a median over the flows; noisy-eval's flows are
# long enough that --seconds alone would leave two.
MIN_FLOWS = 3

# End-to-end metrics.  Every workload reports every one of them; the
# workload-specific meaning is printed next to each value.
E2E_UNITS = {
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


def _busy(span):
    return lambda t, flows, counts: t.busy_s(span) / flows


def _self(span):
    return lambda t, flows, counts: t.self_s(span) / flows


def _calls(span):
    return lambda t, flows, counts: t.calls(span) / flows


def _per(span, denominator):
    def value(t, flows, counts):
        n = counts[denominator] * flows
        return t.calls(span) / n if n else 0.0
    return value


def _step_two(t, flows, counts):
    return (t.busy_s("decode.decode_two_step") - t.busy_s("decode.beam_search_transcript")) / flows


def _records_parsed(t, flows, counts):
    return t.counters.get("data.records_parsed", 0) / flows


# Per-layer metrics, per flow (one unit of the workload's work) unless named
# per utterance or per pair.  Every traced run reports all of them; a layer a
# workload does not reach reads 0.
LAYER_METRICS = {
    "decode.beam_search_transcript.busy_s": ("s", _busy("decode.beam_search_transcript")),
    "decode.beam_search_transcript.self_s": ("s", _self("decode.beam_search_transcript")),
    "decode.step_two_s": ("s", _step_two),
    "model.decoder_states.calls_per_utt": ("count", _per("model.JointModel.decoder_states", "utts")),
    "model.encode_features.calls_per_utt": ("count", _per("model.JointModel.encode_features", "utts")),
    "autodiff.backward.calls": ("count", _calls("autodiff.Tensor.backward")),
    "autodiff.backward.busy_s": ("s", _busy("autodiff.Tensor.backward")),
    "autodiff.tensors_per_utt": ("count", _per("autodiff.Tensor.__init__", "utts")),
    "train.train.self_s": ("s", _self("train.train")),
    "model.forward.busy_s": ("s", _busy("model.JointModel.forward")),
    "model.nlu_states.busy_s": ("s", _busy("model.JointModel.nlu_states")),
    "model.loss_asr.busy_s": ("s", _busy("model.JointModel.loss_asr")),
    "model.loss_nlu.busy_s": ("s", _busy("model.JointModel.loss_nlu")),
    "crf.crf_nll_t.busy_s": ("s", _busy("crf.crf_nll_t")),
    "crf.crf_viterbi.calls": ("count", _calls("crf.crf_viterbi")),
    "subword.tokenize.calls": ("count", _calls("subword.tokenize")),
    "subword.tokenize.busy_s": ("s", _busy("subword.tokenize")),
    "subword.pooling_matrix.busy_s": ("s", _busy("subword.pooling_matrix")),
    "audio.augment_corpus.busy_s": ("s", _busy("audio.augment_corpus")),
    "audio.read_wav.calls": ("count", _calls("audio.read_wav")),
    "audio.write_wav.busy_s": ("s", _busy("audio.write_wav")),
    "audio.log_power_features.calls": ("count", _calls("audio.log_power_features")),
    "audio.log_power_features.busy_s": ("s", _busy("audio.log_power_features")),
    "model.load_checkpoint.busy_s": ("s", _busy("model.load_checkpoint")),
    "train.corpus_features.busy_s": ("s", _busy("train.corpus_features")),
    "data.parse_manifest.busy_s": ("s", _busy("data.parse_manifest")),
    "data.records_parsed": ("count", _records_parsed),
    "metrics.align.calls": ("count", _calls("metrics.align")),
    "metrics.align_per_pair": ("count", _per("metrics.align", "pairs")),
    "metrics.corpus_wer.busy_s": ("s", _busy("metrics.corpus_wer")),
    "metrics.slots_edit_f1.busy_s": ("s", _busy("metrics.slots_edit_f1")),
    "metrics.intent_f1.busy_s": ("s", _busy("metrics.intent_f1")),
    "cli.score.self_s": ("s", _self("cli.cmd_score")),
}


def machine_info(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": ",".join(
            f"{k}={v}" for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        ),
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD read from the .git directory, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _more_setups(times: list[float]) -> bool:
    return len(times) < MIN_SETUP_RUNS or (sum(times) < MIN_SETUP_SECONDS and len(times) < MAX_SETUP_RUNS)


def _more_flows(flows: list[Flow], seconds: float, minimum: int = 1) -> bool:
    return len(flows) < minimum or sum(f.elapsed for f in flows) < seconds


def run_interleaved(workload, work: Path, seed: int, seconds: float):
    """Alternate timed set-ups and flows until both have run long enough.

    Interleaving spreads the flows over the whole run, so that they sample
    the host's fast and slow spells alike.  Every set-up must produce the
    same digest; flows use the first one.  A set-up has no segments to
    probe inside, so its time is scaled to the reference speed by probe
    bursts just before and just after it.  Returns (set-up seconds, scaled
    set-up seconds, flows, state, problems).
    """
    times, scaled, digests, flows = [], [], [], []
    while _more_setups(times) or _more_flows(flows, seconds, MIN_FLOWS):
        if _more_setups(times):
            where = work / f"setup{len(times)}"
            before = host_probe()
            start = time.perf_counter()
            setup = workload.setup(where, seed)
            times.append(time.perf_counter() - start)
            scaled.append(times[-1] * 2 * PROBE_REFERENCE_S / (before + host_probe()))
            digests.append(setup["digest"])
            if len(times) == 1:
                state = setup
            else:
                shutil.rmtree(where)
        if _more_flows(flows, seconds, MIN_FLOWS):
            flows.append(workload.flow(state, work / "flow"))
    problems = [] if len(set(digests)) == 1 else ["set-up is not deterministic for one seed"]
    return times, scaled, flows, state, problems


def host_probe() -> float:
    """The probe's median time over a short burst: the host's speed now."""
    return statistics.median(probe() for _ in range(9))


def run_flows(workload, state, work: Path, seconds: float) -> list[Flow]:
    flows: list[Flow] = []
    while _more_flows(flows, seconds):
        flows.append(workload.flow(state, work))
    return flows


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    workload = WORKLOADS[name]
    info = machine_info(root)
    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"why: {workload.why}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        if trace:
            return _run_traced(workload, seed, seconds, work, root)
        return _run_untraced(workload, seed, seconds, work, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _totals(flows: list[Flow]) -> tuple[int, int]:
    return sum(f.attempted for f in flows), sum(f.failed for f in flows)


def _report(problems: list[str], attempted: int, failed: int, metrics: dict) -> int:
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not problems:
        print("checks: all passed")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


def reference_parts(flows: list[Flow]) -> list[float]:
    """Each segment's time at the reference speed, median over the flows.

    A sample is scaled by PROBE_REFERENCE_S over the probe time just before
    it (see clock.py).
    """
    columns = zip(*(zip(f.parts, f.probes) for f in flows))
    return [
        statistics.median(t * PROBE_REFERENCE_S / probe for t, probe in column)
        for column in columns
    ]


def _run_untraced(workload, seed, seconds, work, root) -> int:
    setup_times, scaled_setups, flows, state, problems = run_interleaved(workload, work, seed, seconds)
    problems += workload.check(state, flows, root)
    if len({(len(f.parts), len(f.probes), f.ops) for f in flows}) != 1:
        problems.append("flows differ in their segment layout")
    attempted, failed = _totals(flows)
    probes = [probe for f in flows for probe in f.probes]
    scaled = reference_parts(flows)
    op_ms = [scaled[i] * 1e3 for i in flows[0].ops]
    raw_op_ms = [ms * 1e3 for f in flows for ms in (f.parts[i] for i in f.ops)]
    values = {
        "items_per_s": flows[0].items / sum(scaled),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p95": percentile(op_ms, 95),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (attempted - failed) / attempted,
    }
    aliases = {
        "items_per_s": f"{workload.items_name} in {workload.items_unit}",
        "op_ms_p50": f"{workload.op_name}_p50",
        "op_ms_p95": f"{workload.op_name}_p95",
    }
    print(f"setup: {len(setup_times)} runs, raw " + " ".join(f"{t:.3f}" for t in setup_times)
          + " s, scaled " + " ".join(f"{t:.3f}" for t in scaled_setups) + " s")
    print(f"setup digest: {state['digest']}")
    print(f"flows: {len(flows)}, {sum(f.seconds for f in flows):.3f} s timed, raw rates "
          + " ".join(f"{f.items / f.seconds:.5g}" for f in flows) + f" {workload.items_unit}")
    print(f"probe: {len(probes)} runs, best {min(probes) * 1e3:.4f} ms, median "
          f"{statistics.median(probes) * 1e3:.4f} ms, reference {PROBE_REFERENCE_S * 1e3:g} ms")
    print(f"latency: {len(op_ms)} distinct ops, each the median of {len(flows)} probe-scaled samples, "
          f"{sum(ms > values['op_ms_p95'] for ms in op_ms)} beyond p95; raw p50 {statistics.median(raw_op_ms):.4g} ms, "
          f"p95 {percentile(raw_op_ms, 95):.4g} ms over {len(raw_op_ms)} samples")
    for key, value in values.items():
        print(f"metric {key} = {value:.6g} {E2E_UNITS[key]}  ({aliases.get(key, key)})")
    print(f"metric failed_share = {failed / attempted:.6g} failed/attempted ({failed}/{attempted})")
    for key, value in flows[0].quality.items():
        print(f"quality {key} = {value:.6g} {workload.quality_unit}")
    print(f"output digest: {digest([f.output for f in flows[:1]])}")
    metrics = {key: {"value": value, "unit": E2E_UNITS[key]} for key, value in values.items()}
    return _report(problems, attempted, failed, metrics)


def _run_traced(workload, seed, seconds, work, root) -> int:
    state = workload.setup(work / "setup0", seed)
    plain = run_flows(workload, state, work / "flow", seconds / 2)
    with Tracer() as tracer:
        traced = run_flows(workload, state, work / "flow", seconds / 2)
    flows = plain + traced
    problems = workload.check(state, flows, root)
    problems += workload.coverage(tracer, len(traced), state)
    counts = workload.per_flow_counts(state)
    values = {name: fn(tracer, len(traced), counts) for name, (_, fn) in LAYER_METRICS.items()}
    plain_s = statistics.median(sum(reference_parts([f])) for f in plain)
    traced_s = statistics.median(sum(reference_parts([f])) for f in traced)
    values["trace.overhead_share"] = traced_s / plain_s - 1.0
    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    units["trace.overhead_share"] = "share"
    print(f"flows: {len(plain)} untraced ({plain_s:.3f} s each), {len(traced)} traced ({traced_s:.3f} s each), "
          "at the reference speed")
    print(f"{'span':<44} {'calls/flow':>12} {'busy_s/flow':>12} {'self_s/flow':>12}")
    for span, calls, busy, self_s in tracer.table()[:40]:
        n = len(traced)
        print(f"{span:<44} {calls / n:>12.1f} {busy / n:>12.6f} {self_s / n:>12.6f}")
    for key, value in values.items():
        print(f"layer {key} = {value:.6g} {units[key]}")
    attempted, failed = _totals(flows)
    metrics = {key: {"value": value, "unit": units[key]} for key, value in values.items()}
    return _report(problems, attempted, failed, metrics)
