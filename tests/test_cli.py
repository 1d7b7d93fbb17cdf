import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specshare.agents import HdrlAgent, evaluate, make_agent, train
from specshare.allocation import ALLOCATION_ARRAYS, AllocationState, validate
from specshare.cli import BENCHMARK_COLUMNS, STEPS_COLUMNS, SWEEP_COLUMNS, TRAIN_LOG_COLUMNS, main
from specshare.config import ScenarioConfig, config_from_dict, load_config
from specshare.env import SpectrumSharingEnv
from specshare.ppo import load_checkpoint

CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "desk.cfg")


def _write_tiny_cfg(tmp_path) -> str:
    # desk topology with a short horizon and a small ppo batch, for speed
    p = tmp_path / "tiny.cfg"
    p.write_text(
        "[topology]\n"
        "beams = 2\nhaps_per_beam = 1\nregions_per_hap = 1\n"
        "uavs_per_region = 1\nusers_per_region = 4\n"
        "[radio]\nnum_subbands = 4\nfading_frozen = true\n"
        "[ppo]\nbatch_size = 48\nminibatch_size = 24\nsgd_iters = 2\n"
        "[run]\nsteps_per_episode = 20\ndecision_intervals = 20, 5, 1\nepisodes = 2\n"
    )
    return str(p)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_train_writes_log_checkpoint_and_manifest(tmp_path):
    cfg_path = _write_tiny_cfg(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--config", cfg_path, "--algo", "hdrl", "--episodes", "2", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "train_log.csv")
    assert tuple(rows[0]) == TRAIN_LOG_COLUMNS
    assert len(rows) == 1 + 2  # header + one row per episode
    assert (out / "checkpoint.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["agents"] == ["hdrl"]
    assert "config_hash" in manifest and "created_utc" in manifest
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert ckpt["kind"] == "hdrl"
    assert ckpt["config_hash"] == manifest["config_hash"]


def test_train_refuses_non_trainable_algo(tmp_path, caplog):
    rc = main(["train", "--config", CONFIG, "--algo", "exhaustive", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "not trainable" in caplog.text


def test_missing_config_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--algo", "hdrl", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["optimize"])
    assert exc.value.code == 2


def test_evaluate_requires_checkpoint_for_learnable_agents(tmp_path, caplog):
    rc = main(["evaluate", "--config", CONFIG, "--algo", "sadrl", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "checkpoint" in caplog.text


@pytest.mark.parametrize("algo", ["random", "exhaustive"])
def test_evaluate_refuses_a_checkpoint_for_an_untrainable_agent(tmp_path, caplog, algo):
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text("{}")
    out = tmp_path / "e"
    rc = main(["evaluate", "--config", CONFIG, "--algo", algo, "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 1
    assert f"{algo!r} has no weights to load" in caplog.text
    assert not out.exists()  # refused before any output


def _hdrl_checkpoint(tmp_path, edit) -> tuple[str, Path]:
    """The tiny config's path and an untrained hdrl checkpoint for it, its
    JSON edited in place by ``edit(blob)``."""
    cfg_path = _write_tiny_cfg(tmp_path)
    ckpt = tmp_path / "checkpoint.json"
    make_agent("hdrl", load_config(cfg_path)).save(ckpt)
    blob = json.loads(ckpt.read_text())
    edit(blob)
    ckpt.write_text(json.dumps(blob))
    return cfg_path, ckpt


@pytest.mark.parametrize("field", ["kind", "config_hash", "nets", "rng_state"])
def test_evaluate_names_a_field_missing_from_the_checkpoint(tmp_path, caplog, field):
    cfg_path, ckpt = _hdrl_checkpoint(tmp_path, lambda blob: blob.pop(field))
    with pytest.raises(ValueError, match=f"no '{field}' field"):
        load_checkpoint(ckpt)
    rc = main([
        "evaluate", "--config", cfg_path, "--algo", "hdrl", "--checkpoint", str(ckpt),
        "--out", str(tmp_path / "e"),
    ])
    assert rc == 1
    assert f"no '{field}' field" in caplog.text


def test_evaluate_does_not_read_the_checkpoints_ppo_settings(tmp_path):
    # config_hash covers the PPO settings; the saved block is for readers
    cfg_path, ckpt = _hdrl_checkpoint(tmp_path, lambda blob: blob["ppo"].update(bogus=1))
    rc = main([
        "evaluate", "--config", cfg_path, "--algo", "hdrl", "--checkpoint", str(ckpt),
        "--out", str(tmp_path / "e"),
    ])
    assert rc == 0


def test_evaluate_random_agent_default_episode_count(tmp_path):
    cfg_path = _write_tiny_cfg(tmp_path)
    out = tmp_path / "eval"
    rc = main(["evaluate", "--config", cfg_path, "--algo", "random", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "steps.csv")
    assert tuple(rows[0]) == STEPS_COLUMNS
    assert len(rows) == 1 + 20  # one episode of steps_per_episode rows
    report = json.loads((out / "report.json").read_text())
    assert report["algo"] == "random"
    assert report["episodes_per_seed"] == 1
    assert set(report["per_seed"]) == {"0"}
    timing = json.loads((out / "timing.json").read_text())
    assert len(timing["0"]["decision_time_s"]) == 1


def test_evaluate_multi_seed_report_pools_episodes(tmp_path):
    cfg_path = _write_tiny_cfg(tmp_path)
    out = tmp_path / "eval"
    rc = main([
        "evaluate", "--config", cfg_path, "--algo", "random",
        "--episodes", "2", "--seeds", "3,4", "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out / "steps.csv")
    assert len(rows) == 1 + 2 * 2 * 20
    seeds_in_csv = {r[5] for r in rows[1:]}
    assert seeds_in_csv == {"3", "4"}
    report = json.loads((out / "report.json").read_text())
    assert set(report["per_seed"]) == {"3", "4"}
    assert "eta_std" in report["pooled"]
    # different seeds place users differently, so the metrics must differ
    assert report["per_seed"]["3"]["eta_mean"] != report["per_seed"]["4"]["eta_mean"]


def test_evaluate_is_byte_identical_across_runs(tmp_path):
    cfg_path = _write_tiny_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = main([
            "evaluate", "--config", cfg_path, "--algo", "random",
            "--episodes", "2", "--seeds", "0,1", "--out", str(out),
        ])
        assert rc == 0
    # metric files are byte-identical; only the manifest timestamp and the
    # wall-clock timing file may differ
    assert (out_a / "steps.csv").read_bytes() == (out_b / "steps.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    ma.pop("created_utc"), mb.pop("created_utc")
    ma.pop("out_dir"), mb.pop("out_dir")
    assert ma == mb


def test_evaluate_checkpoint_config_mismatch(tmp_path, caplog):
    cfg_path = _write_tiny_cfg(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--algo", "sadrl", "--episodes", "1", "--out", str(run)]) == 0
    rc = main([
        "evaluate", "--config", CONFIG, "--algo", "sadrl",
        "--checkpoint", str(run / "checkpoint.json"), "--out", str(tmp_path / "e"),
    ])
    assert rc == 1
    assert "config hash mismatch" in caplog.text


def test_evaluate_checkpoint_round_trip_and_seed_override(tmp_path):
    cfg_path = _write_tiny_cfg(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--algo", "hdrl", "--episodes", "2", "--out", str(run)]) == 0
    # a checkpoint trained under seed 0 evaluates under other seeds
    rc = main([
        "evaluate", "--config", cfg_path, "--algo", "hdrl",
        "--checkpoint", str(run / "checkpoint.json"), "--seeds", "5", "--out", str(tmp_path / "e"),
    ])
    assert rc == 0


def test_trace_and_replay_round_trip(tmp_path, capsys):
    cfg_path = _write_tiny_cfg(tmp_path)
    out = tmp_path / "eval"
    trace = tmp_path / "trace.jsonl"
    rc = main([
        "evaluate", "--config", cfg_path, "--algo", "random",
        "--episodes", "2", "--out", str(out), "--trace", str(trace),
    ])
    assert rc == 0
    rc = main(["replay", "--trace", str(trace)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "replayed 40 steps" in printed
    assert "max absolute deviation 0.0" in printed


def test_replay_pinpoints_a_corrupted_field(tmp_path, capsys):
    cfg_path = _write_tiny_cfg(tmp_path)
    trace = tmp_path / "trace.jsonl"
    assert main([
        "evaluate", "--config", cfg_path, "--algo", "random", "--out", str(tmp_path / "e"),
        "--trace", str(trace),
    ]) == 0
    lines = trace.read_text().splitlines()
    entry = json.loads(lines[7])  # an arbitrary step line (1-based line 8)
    entry["metrics"]["eta"] += 0.5
    lines[7] = json.dumps(entry)
    corrupted = tmp_path / "corrupted.jsonl"
    corrupted.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--trace", str(corrupted)]) == 1
    printed = capsys.readouterr().out
    deviation = float(printed.splitlines()[0].rsplit(" ", 1)[1])
    assert deviation == pytest.approx(0.5, rel=1e-9)
    assert "trace line 8" in printed
    assert "'eta'" in printed


def _tiny_trace(tmp_path, episodes: int = 1) -> tuple[Path, list[dict]]:
    """A random agent's trace on the tiny config and its lines, decoded."""
    trace = tmp_path / "trace.jsonl"
    assert main([
        "evaluate", "--config", _write_tiny_cfg(tmp_path), "--algo", "random",
        "--episodes", str(episodes), "--out", str(tmp_path / "e"), "--trace", str(trace),
    ]) == 0
    return trace, [json.loads(line) for line in trace.read_text().splitlines()]


def _write_trace(path: Path, lines: list[dict]) -> None:
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


@pytest.mark.parametrize("field", ["allocation", "tx_positions", "gains", "metrics"])
def test_replay_names_a_field_missing_from_a_step_and_its_line(tmp_path, caplog, field):
    trace, lines = _tiny_trace(tmp_path)
    del lines[7][field]  # 1-based trace line 8
    _write_trace(trace, lines)
    assert main(["replay", "--trace", str(trace)]) == 1
    assert f"line 8 has no '{field}' field" in caplog.text


def _drop(table: str, key: str):
    return lambda step: step[table].pop(key)


def _fill(key: str, value):
    """Set the step's allocation array ``key`` to ``value`` broadcast over
    its shape (a ``(2,)`` row, for ``dp``)."""
    def edit(step):
        step["allocation"][key] = np.full(np.shape(step["allocation"][key]), value).tolist()
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda step: step.update(allocation=[1]), "has a non-object 'allocation' field"),
        *[
            (_drop("allocation", key), f"has no '{key}' in its 'allocation'")
            for key in ("global", "regional", "beta", "alpha", "dp")
        ],
        (lambda step: step.update(metrics=3.0), "has a non-object 'metrics' field"),
        (lambda step: step["metrics"].update(bogus=1.0), "has an unknown metric 'bogus'"),
        # the tiny config has 6 transmitters, 8 users and 4 subbands
        (
            lambda step: step["allocation"].update(alpha=[[1.0]]),
            "has 'allocation.alpha' of shape (1, 1), expected (6, 4)",
        ),
        (
            lambda step: step["allocation"].__setitem__("global", [[0, 1, 0, 1]]),
            "has 'allocation.global' of shape (1, 4), expected (2, 4)",
        ),
        (
            lambda step: step["allocation"]["regional"][2].pop(),
            "has an unreadable 'allocation.regional'",
        ),
        (
            lambda step: step["allocation"]["beta"][0].__setitem__(0, float("nan")),
            "has an unreadable 'allocation.beta'",
        ),
        (
            lambda step: step.update(tx_positions=step["tx_positions"][:1]),
            "has 'tx_positions' of shape (1, 3), expected (6, 3)",
        ),
        (
            lambda step: step.update(gains=np.transpose(step["gains"]).tolist()),
            "has 'gains' of shape (8, 6), expected (6, 8)",
        ),
        (
            lambda step: step["metrics"]["region_eta"].append(0.0),
            "has metric 'region_eta' of shape (3,), expected (2,)",
        ),
        (lambda step: step["metrics"].update(eta=[1.0, 2.0]), "has metric 'eta' of shape (2,), expected ()"),
        (lambda step: step["metrics"].update(eta="high"), "has an unreadable metric 'eta'"),
        # nothing replay recomputes reads global, dp, or beta off the granted
        # subbands: only the feasibility check sees these
        (_fill("beta", 1), "has an infeasible allocation: access-mask at"),
        (_fill("global", 1), "has an infeasible allocation: beam-conflict at"),
        (_fill("dp", [1e9, -1e9]), "has an infeasible allocation: movement-limit at"),
        (
            lambda step: step["allocation"]["alpha"][1].__setitem__(2, float("nan")),
            "has an infeasible allocation: power-range at (1, 2): alpha outside [0, 1]",
        ),
        # an int8 read truncates 1.9 to 1 and 0.7 to 0
        (
            lambda step: step["allocation"]["beta"][0].__setitem__(1, 1.9),
            "has a non-integral 'allocation.beta' entry 1.9 at (0, 1)",
        ),
        (
            lambda step: step["allocation"]["global"][0].__setitem__(0, 0.7),
            "has a non-integral 'allocation.global' entry 0.7 at (0, 0)",
        ),
        # a NaN UAV compares as inside its region: the recomputed metrics
        # would not show it; row 2 is region 0's UAV
        (
            lambda step: step["tx_positions"][2].__setitem__(slice(0, 2), [float("nan")] * 2),
            "has a non-finite 'tx_positions' entry nan at (2, 0)",
        ),
        (
            lambda step: step.update(gains=np.full(np.shape(step["gains"]), np.nan).tolist()),
            "has a non-finite 'gains' entry nan at (0, 0)",
        ),
    ],
    ids=[
        "allocation-not-an-object",
        *[f"allocation-without-{key}" for key in ("global", "regional", "beta", "alpha", "dp")],
        "metrics-not-an-object",
        "unknown-metric",
        "alpha-wrong-shape",
        "global-wrong-shape",
        "regional-ragged",
        "beta-nan",
        "tx-positions-one-row",
        "gains-transposed",
        "region-metric-too-long",
        "scalar-metric-as-a-list",
        "metric-not-a-number",
        "beta-all-ones",
        "global-all-ones",
        "dp-a-million-km",
        "alpha-nan",
        "beta-1.9",
        "global-0.7",
        "tx-positions-nan",
        "gains-nan",
    ],
)
def test_replay_names_a_malformed_allocation_or_metrics_and_its_line(tmp_path, caplog, edit, message):
    trace, lines = _tiny_trace(tmp_path)
    edit(lines[7])  # 1-based trace line 8
    _write_trace(trace, lines)
    assert main(["replay", "--trace", str(trace)]) == 1
    assert f"malformed trace: line 8 {message}" in caplog.text


# a NaN gain is refused as malformed (gains-nan above) before any metric is recomputed
@pytest.mark.parametrize(
    "edit, field",
    [(lambda step: step["metrics"].update(eta=float("nan")), "eta")],
    ids=["nan-eta"],
)
def test_replay_counts_a_nan_as_a_deviation(tmp_path, capsys, edit, field):
    trace, lines = _tiny_trace(tmp_path)
    edit(lines[7])  # 1-based trace line 8
    _write_trace(trace, lines)
    assert main(["replay", "--trace", str(trace)]) == 1
    printed = capsys.readouterr().out
    assert "max absolute deviation inf" in printed
    assert f"largest deviation at trace line 8, field {field!r}" in printed


@pytest.mark.parametrize("episode", [0, 1])
def test_replay_names_a_header_without_a_config(tmp_path, caplog, episode):
    trace, lines = _tiny_trace(tmp_path, episodes=2)
    index = [i for i, line in enumerate(lines) if line["type"] == "header"][episode]
    del lines[index]["config"]
    _write_trace(trace, lines)
    assert main(["replay", "--trace", str(trace)]) == 1
    assert f"line {index + 1} has no 'config' field" in caplog.text


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda cfg: cfg.update(beams=2.5), "beams"),
        (lambda cfg: cfg.update(bogus=1), "bogus"),
        (lambda cfg: cfg["ppo"].update(bogus=1), "bogus"),
        (lambda cfg: cfg.update(reward_weights=[1.0]), "reward_weights"),
    ],
    ids=["non-integral-int", "unknown-top-level-key", "unknown-ppo-key", "table-not-a-dict"],
)
def test_replay_refuses_a_tampered_header_naming_the_key(tmp_path, caplog, edit, key):
    trace, lines = _tiny_trace(tmp_path)
    edit(lines[0]["config"])
    _write_trace(trace, lines)
    assert main(["replay", "--trace", str(trace)]) == 1
    assert "line 1" in caplog.text and key in caplog.text


def test_replay_reads_an_integral_float_in_the_header_as_the_file_reader_does(tmp_path, capsys):
    # ``beams = 2.0`` parses in a config file, so 2.0 in a header means 2 too
    trace, lines = _tiny_trace(tmp_path)
    lines[0]["config"]["beams"] = 2.0
    _write_trace(trace, lines)
    assert main(["replay", "--trace", str(trace)]) == 0
    assert "max absolute deviation 0.0" in capsys.readouterr().out


# small drawn scenarios, as keyword strategies for ``given``
_SMALL_SCENARIOS = {
    "topology": st.fixed_dictionaries({
        "beams": st.integers(1, 2),
        "haps_per_beam": st.integers(1, 2),
        "regions_per_hap": st.integers(1, 2),
        "uavs_per_region": st.integers(1, 2),
        "users_per_region": st.integers(1, 5),
    }),
    "radio": st.fixed_dictionaries({
        "num_subbands": st.integers(2, 4),
        "interference_scope": st.sampled_from(["global", "region"]),
        "fading_frozen": st.booleans(),
    }),
    "run": st.fixed_dictionaries({
        "steps_per_episode": st.integers(3, 6),
        "decision_intervals": st.sampled_from(["1, 1, 1", "2, 1, 1", "2, 2, 1"]),
        "seed": st.integers(0, 999),
    }),
    "episodes": st.integers(1, 2),
}


def _random_trace(out: Path, topology, radio, run, episodes) -> Path:
    """A random agent's trace on a drawn scenario, written under ``out``."""
    sections = {"topology": topology, "radio": radio, "run": run}
    cfg_path = out / "c.cfg"
    cfg_path.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in table.items())
        for name, table in sections.items()
    ))
    trace = out / "trace.jsonl"
    assert main([
        "evaluate", "--config", str(cfg_path), "--algo", "random", "--episodes", str(episodes),
        "--out", str(out / "e"), "--trace", str(trace),
    ]) == 0
    return trace


def test_random_small_scenarios_replay_with_zero_deviation(tmp_path_factory, capsys):
    # a random agent's trace on a drawn scenario recomputes with no deviation
    # at all: replay runs the env's channel, metrics and reward code again
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(**_SMALL_SCENARIOS)
    def replays(topology, radio, run, episodes):
        trace = _random_trace(tmp_path_factory.mktemp("replay"), topology, radio, run, episodes)
        capsys.readouterr()
        assert main(["replay", "--trace", str(trace)]) == 0
        assert "max absolute deviation 0.0" in capsys.readouterr().out

    replays()


def test_random_small_scenarios_refuse_an_infeasible_allocation(tmp_path_factory, caplog):
    # one drawn allocation entry of one drawn step set to a value that makes
    # the step infeasible: replay exits 1 and names the violation validate
    # reports for that same state
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(**_SMALL_SCENARIOS, data=st.data())
    def refuses(topology, radio, run, episodes, data):
        trace = _random_trace(tmp_path_factory.mktemp("tamper"), topology, radio, run, episodes)
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        cfg = config_from_dict(lines[0]["config"])
        index = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line["type"] == "step"]))
        key = data.draw(st.sampled_from([key for key, _, _, _ in ALLOCATION_ARRAYS]))
        allocation = lines[index]["allocation"]
        arr = np.array(allocation[key])
        entry = tuple(data.draw(st.integers(0, size - 1)) for size in arr.shape)
        if key == "alpha":
            values = [-0.5, 1.5, 1.0]
        elif key == "dp":
            values = [cfg.uav_step + 1.0, -cfg.uav_step - 1.0]
        else:
            values = [1 - int(arr[entry])]  # a flip
        arr[entry] = data.draw(st.sampled_from(values))
        allocation[key] = arr.tolist()
        violation = validate(AllocationState.from_dict(allocation), cfg)
        assume(violation is not None)
        _write_trace(trace, lines)
        caplog.clear()
        assert main(["replay", "--trace", str(trace)]) == 1
        assert f"malformed trace: line {index + 1} has an infeasible allocation: {violation}" in caplog.text

    refuses()


def test_replay_rejects_empty_and_malformed_traces(tmp_path, caplog):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["replay", "--trace", str(empty)]) == 1
    assert "empty trace" in caplog.text
    caplog.clear()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert main(["replay", "--trace", str(bad)]) == 1
    assert "malformed trace" in caplog.text
    caplog.clear()
    bad.write_text('{"type": "header", "config": {}}\n[1, 2]\n')
    assert main(["replay", "--trace", str(bad)]) == 1
    assert "line 2 is not a JSON object" in caplog.text
    caplog.clear()
    missing = tmp_path / "missing.jsonl"
    assert main(["replay", "--trace", str(missing)]) == 1


def test_benchmark_rows_aggregates_and_speedups(tmp_path):
    cfg_path = _write_tiny_cfg(tmp_path)
    out = tmp_path / "bench"
    rc = main([
        "benchmark", "--config", cfg_path, "--algos", "random,exhaustive",
        "--episodes", "1", "--seeds", "0", "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out / "benchmark.csv")
    assert tuple(rows[0]) == BENCHMARK_COLUMNS
    assert {len(r) for r in rows} == {len(BENCHMARK_COLUMNS)}
    by_algo_seed = {(r[0], r[1]): r for r in rows[1:]}
    assert ("random", "0") in by_algo_seed
    assert ("exhaustive", "0") in by_algo_seed
    assert ("random", "mean") in by_algo_seed
    # enumerated optimum beats a random policy on spectral efficiency
    eta = BENCHMARK_COLUMNS.index("eta_bps_per_hz")
    assert float(by_algo_seed[("exhaustive", "0")][eta]) > float(by_algo_seed[("random", "0")][eta])
    speedup = json.loads((out / "speedup.json").read_text())
    ratios = speedup["decision_time_ratios"]
    assert ratios["exhaustive/random"] > 1.0
    assert ratios["random/exhaustive"] == pytest.approx(1.0 / ratios["exhaustive/random"])


def test_benchmark_skips_exhaustive_over_the_cap(tmp_path):
    # default scenario: candidate count far beyond the enumeration cap; the
    # tiny scenario is under the cap but unfrozen, which the search refuses too
    unfrozen = Path(_write_tiny_cfg(tmp_path))
    unfrozen.write_text(unfrozen.read_text().replace("fading_frozen = true", "fading_frozen = false"))
    cases = [
        (str(Path(CONFIG).parent / "default.cfg"), "exhaustive"),
        (str(unfrozen), "exhaustive,random"),
    ]
    for i, (cfg_path, algos) in enumerate(cases):
        out = tmp_path / f"bench{i}"
        rc = main([
            "benchmark", "--config", cfg_path, "--algos", algos, "--episodes", "1",
            "--seeds", "0", "--sweep", "local_power", "--out", str(out),
        ])
        assert rc == 0
        rows = _read_csv(out / "benchmark.csv")
        status = BENCHMARK_COLUMNS.index("status")
        assert {len(r) for r in rows} == {len(BENCHMARK_COLUMNS)}
        assert rows[1][:3] == ["exhaustive", "0", "skipped"]
        eta = BENCHMARK_COLUMNS.index("eta_bps_per_hz")
        assert rows[1][eta] == ""  # skipped rows carry no measurements
        assert [r[0] for r in rows[2:] if r[status] == "ok"] == ["random"] * 2 * ("random" in algos)
        sweep = _read_csv(out / "sweep.csv")
        assert tuple(sweep[0]) == SWEEP_COLUMNS
        assert [r[0] for r in sweep[1:]] == ["random"] * 5 * ("random" in algos)


def test_negative_seed_fails_before_any_output(tmp_path, caplog):
    cfg_path = Path(_write_tiny_cfg(tmp_path))
    cfg_path.write_text(cfg_path.read_text() + "seed = -1\n")
    out = tmp_path / "eval"
    rc = main(["evaluate", "--config", str(cfg_path), "--algo", "random", "--out", str(out)])
    assert rc == 1
    assert "seed must be >= 0" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "benchmark"])
def test_negative_listed_seed_fails_before_any_output(tmp_path, caplog, command):
    # the first seeds are valid: they must not be run, nor a manifest
    # written, before -1 or the repeated 0 is refused
    algo = ["--algo", "random"] if command == "evaluate" else ["--algos", "random"]
    cases = [("0,-1", "seed must be >= 0, got -1"), ("0,1,0", "seed 0 is listed more than once")]
    for i, (seeds, message) in enumerate(cases):
        out = tmp_path / f"{command}{i}"
        rc = main([
            command, "--config", _write_tiny_cfg(tmp_path), *algo, "--seeds", seeds, "--out", str(out),
        ])
        assert rc == 1
        assert message in caplog.text
        assert not out.exists()


def test_benchmark_fails_on_a_diverged_agent(tmp_path, caplog, monkeypatch):
    # only the exhaustive search's refusal makes a skipped row: an action
    # the env refuses stops the run and names the field
    act = HdrlAgent.act

    def diverged(self, obs, t, explore=True):
        bundle = act(self, obs, t, explore)
        bundle["local"]["alpha"] = np.full_like(bundle["local"]["alpha"], np.nan)
        return bundle

    monkeypatch.setattr(HdrlAgent, "act", diverged)
    rc = main([
        "benchmark", "--config", _write_tiny_cfg(tmp_path), "--algos", "random,hdrl",
        "--episodes", "1", "--seeds", "0", "--out", str(tmp_path / "bench"),
    ])
    assert rc == 1
    assert "local action 'alpha' holds a non-finite value" in caplog.text


def test_sweep_rates_the_trained_weights(tmp_path, monkeypatch):
    # the sweep rates one learned agent's weights at every scale: at the
    # config's own seed, the benchmark row's agent, not a second training;
    # random rows do not change
    trained = []

    def counting_train(agent, env, episodes=None, on_episode=None):
        trained.append(agent.kind)
        return train(agent, env, episodes=episodes, on_episode=on_episode)

    monkeypatch.setattr("specshare.cli.train", counting_train)
    cfg_path = _write_tiny_cfg(tmp_path)
    sweeps = {}
    for episodes in (0, 2):
        out = tmp_path / f"bench{episodes}"
        assert main([
            "benchmark", "--config", cfg_path, "--algos", "random,hdrl", "--episodes", "1",
            "--train-episodes", str(episodes), "--sweep", "local_power", "--out", str(out),
        ]) == 0
        sweeps[episodes] = _read_csv(out / "sweep.csv")[1:]
    assert trained == ["hdrl"]  # the benchmark row's agent, reused by the sweep
    before, after = sweeps[0], sweeps[2]
    assert [r[0] for r in before] == ["random"] * 5 + ["hdrl"] * 5
    assert before[:5] == after[:5]
    assert all(a != b for a, b in zip(before[5:], after[5:]))


def test_sweep_trains_its_own_agent_only_when_no_row_ran_the_configs_seed(tmp_path, monkeypatch):
    # the config's seed among --seeds: the sweep rates that row's agent;
    # left out: the sweep trains the same agent itself, to the same bytes
    trained = []

    def counting_train(agent, env, episodes=None, on_episode=None):
        trained.append(agent.kind)
        return train(agent, env, episodes=episodes, on_episode=on_episode)

    monkeypatch.setattr("specshare.cli.train", counting_train)
    cfg_path = _write_tiny_cfg(tmp_path)
    own = load_config(cfg_path).seed
    runs = {}
    for seeds in (str(own), str(own + 1)):
        trained.clear()
        out = tmp_path / f"bench{seeds}"
        assert main([
            "benchmark", "--config", cfg_path, "--algos", "hdrl", "--episodes", "1", "--seeds", seeds,
            "--train-episodes", "2", "--sweep", "local_power", "--out", str(out),
        ]) == 0
        runs[seeds] = (list(trained), (out / "sweep.csv").read_bytes())
    assert runs[str(own)][0] == ["hdrl"]
    assert runs[str(own + 1)][0] == ["hdrl", "hdrl"]
    assert runs[str(own)][1] == runs[str(own + 1)][1]


def test_benchmark_rejects_unknown_algo(tmp_path, caplog):
    rc = main([
        "benchmark", "--config", CONFIG, "--algos", "random,greedy", "--out", str(tmp_path / "b"),
    ])
    assert rc == 1
    assert "unknown" in caplog.text


def test_benchmark_rejects_unknown_sweep_before_any_output(tmp_path, capsys):
    # refused while parsing: no manifest, no agent run, no benchmark.csv
    out = tmp_path / "b"
    with pytest.raises(SystemExit) as exc:
        main([
            "benchmark", "--config", _write_tiny_cfg(tmp_path), "--algos", "random",
            "--sweep", "bogus", "--out", str(out),
        ])
    assert exc.value.code != 0
    assert "local_power" in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_std_rows_appear_with_three_seeds(tmp_path):
    cfg_path = _write_tiny_cfg(tmp_path)
    out = tmp_path / "bench"
    rc = main([
        "benchmark", "--config", cfg_path, "--algos", "random",
        "--episodes", "1", "--seeds", "0,1,2", "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out / "benchmark.csv")
    labels = [(r[0], r[1]) for r in rows[1:]]
    assert ("random", "mean") in labels
    assert ("random", "std") in labels
    assert len([1 for a, s in labels if s not in ("mean", "std")]) == 3


def test_power_sweep_emits_monotone_power_grid(tmp_path):
    cfg_path = _write_tiny_cfg(tmp_path)
    out = tmp_path / "bench"
    rc = main([
        "benchmark", "--config", cfg_path, "--algos", "random",
        "--episodes", "1", "--seeds", "0", "--sweep", "local_power", "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out / "sweep.csv")
    assert tuple(rows[0]) == SWEEP_COLUMNS
    power = [float(r[SWEEP_COLUMNS.index("local_power_dbm")]) for r in rows[1:]]
    rate = [float(r[SWEEP_COLUMNS.index("sum_rate_bps_per_hz")]) for r in rows[1:]]
    assert len(power) == 5
    assert power == sorted(power)
    # sum rate grows with the local power budget on the desk scenario
    assert rate[-1] > rate[0]


class _NullAgent:
    """Returns prebuilt empty bundles; its act() does no work at all."""

    kind = "null"
    trainable = False

    def __init__(self, cfg: ScenarioConfig):
        ds, dh, _ = cfg.decision_intervals
        local = {
            "beta": np.zeros((cfg.num_transmitters, cfg.num_subbands)),
            "alpha": np.zeros((cfg.num_transmitters, cfg.num_subbands)),
            "dp": np.zeros((cfg.num_transmitters, 2)),
        }
        g = np.zeros((cfg.beams, cfg.num_subbands))
        r = np.zeros((cfg.num_regions, cfg.nodes_per_region, cfg.num_subbands))
        self._by_t = []
        for t in range(cfg.steps_per_episode):
            bundle = {"local": local}
            if t % ds == 0:
                bundle["global"] = g
            if t % dh == 0:
                bundle["regional"] = r
            self._by_t.append(bundle)

    def begin_episode(self, env) -> None:
        pass

    def act(self, obs, t, explore=True):
        return self._by_t[t]

    def record(self, rewards) -> None:
        pass

    def end_episode(self) -> None:
        pass


def test_decision_timing_excludes_environment_physics():
    # a do-nothing agent's decision time is bounded by the physics it would
    # take in if env.step leaked into the timed window: that step time,
    # measured over the same episodes, dwarfs the clock reads around act
    cfg = load_config(CONFIG)
    env = SpectrumSharingEnv(cfg)
    step = env.step
    step_time = 0.0

    def timed_step(bundle):
        nonlocal step_time
        t0 = time.perf_counter()
        out = step(bundle)
        step_time += time.perf_counter() - t0
        return out

    env.step = timed_step  # evaluate steps through the instance attribute
    null_time = sum(evaluate(_NullAgent(cfg), env, episodes=3)["decision_time_s"])
    assert null_time < 0.01 * step_time
