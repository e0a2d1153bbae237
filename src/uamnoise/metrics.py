"""Episode metrics, trace I/O, the rho-sweep harness, and the CSV/JSON
writers behind every report the CLI emits.

All trace-derivable metrics (altitude histogram, per-zone noise series) are
pure functions of the decision-tick trace, so recomputing them from a saved
trace file reproduces the live values exactly. LOS counts come from the
simulator's event log.
"""
from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from . import rl
from .errors import ValidationError, check_number, to_number
from .mdp import RewardConfig
from .network import COORD_LIMIT_M, AltitudeLayerSet, Network, Scenario
from .noise import NO_CONTRIBUTION, zone_noise_report
from .rl import TraceRow, TrainConfig, attribute_layers, collect_rollout
from .sim import Action, SimConfig

TRACE_COLUMNS = ("t", "id", "x", "y", "z_ft", "action", "b_changing")
# check_number's (low, high, above) per number column of a trace, in file order.
COORD_RULES = {"t": (), "x": (-COORD_LIMIT_M, COORD_LIMIT_M),
               "y": (-COORD_LIMIT_M, COORD_LIMIT_M), "z_ft": (0, None, True)}


@dataclass
class EpisodeMetrics:
    los_count: int
    noise_increase_median_db: float | None  # median over zones of time-mean increase
    noise_increase_max_db: float | None
    histogram: dict[float, float]  # layer -> fraction of aircraft-ticks
    mean_return: float
    seed: int = 0
    rho: float | None = None


# ---------------------------------------------------------------------------
# Trace I/O


def write_trace(trace: list[TraceRow], path) -> None:
    write_csv(path, TRACE_COLUMNS,
              ((r.t, r.id, r.x_m, r.y_m, r.z_ft, int(r.action), int(r.b_changing))
               for r in trace), cell=str)


def read_csv(path, what: str, parse) -> list:
    """parse(record) for each record of the CSV file at path. A ValidationError
    names the file and line; an unreadable file or column names the file."""
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for rec in reader:
                try:
                    rows.append(parse(rec))
                except ValidationError as exc:
                    raise ValidationError(f"{what} {path} line {reader.line_num}: {exc}") from exc
    except (OSError, KeyError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    return rows


def read_trace(path) -> list[TraceRow]:
    def parse(rec):
        t, x, y, z_ft = (check_number(col, to_number(rec[col]), *rule)
                         for col, rule in COORD_RULES.items())
        return TraceRow(t, rec["id"], x, y, z_ft, Action(int(rec["action"])),
                        bool(int(rec["b_changing"])))
    return read_csv(path, "trace", parse)


# ---------------------------------------------------------------------------
# Altitude occupancy


def altitude_histogram(trace: list[TraceRow], layers: AltitudeLayerSet) -> dict[float, float]:
    """Fraction of enroute aircraft-ticks per layer; fractions sum to 1."""
    if not trace:
        raise ValidationError("cannot build a histogram from an empty trace")
    attributed = attribute_layers(trace, layers)
    hist = {z: 0.0 for z in layers.levels_ft}
    for z in attributed:
        hist[z] += 1.0
    return {z: c / len(attributed) for z, c in hist.items()}


def histogram_entropy(hist: dict[float, float]) -> float:
    return -sum(p * math.log(p) for p in hist.values() if p > 0.0)


# ---------------------------------------------------------------------------
# Zone noise from a trace


def link_segments(network: Network) -> tuple:
    """The network's links as nearest_link reads them: ids in id order, and
    per link its start (ax, ay), direction (dx, dy) and squared length L2."""
    ids = sorted(network.links)
    (ax, ay), (bx, by) = np.array([network.link_segment(lid) for lid in ids]).transpose(1, 2, 0)
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    # A zero-length link has a zero numerator, so dividing by 1 gives s = 0.
    L2[L2 == 0.0] = 1.0
    return ids, ax, ay, dx, dy, L2


def nearest_link(segments: tuple, xs: list[float], ys: list[float]) -> list[str]:
    """For each point (xs[i], ys[i]), the link of segments (link_segments of a
    network) that is closest; on a tie the lowest id, as at a vertiport, where
    several links are at 0.

    One row per point, one column per link in id order; each entry takes the
    operations, in the order, of a scalar point-to-segment distance."""
    ids, ax, ay, dx, dy, L2 = segments
    x, y = np.asarray(xs, dtype=float)[:, None], np.asarray(ys, dtype=float)[:, None]
    s = np.maximum(0.0, np.minimum(1.0, ((x - ax) * dx + (y - ay) * dy) / L2))
    px, py = x - (ax + s * dx), y - (ay + s * dy)
    d = np.hypot(px, py)
    # np.hypot and math.hypot can differ in the last bit, so the links within a
    # hair of each row's minimum get math.hypot's value before argmin takes
    # the first (lowest id) minimum.
    rows, cols = np.nonzero(d <= d.min(axis=1, keepdims=True) * (1.0 + 1e-9) + 1e-300)
    d[rows, cols] = list(map(math.hypot, px[rows, cols].tolist(), py[rows, cols].tolist()))
    return [ids[k] for k in d.argmin(axis=1)]


def zone_noise_series(trace: list[TraceRow],
                      network: Network) -> dict[str, list[tuple[float, float]]]:
    """Per-zone cumulative increase at each decision tick. Slant distance is
    the aircraft's altitude (receiver directly beneath); each aircraft is
    attributed to the zone of its current (nearest) link."""
    if not network.zones:
        return {}
    ticks: dict[float, list[TraceRow]] = {}
    for row in trace:
        ticks.setdefault(row.t, []).append(row)
    ambients = {zid: zone.ambient_db for zid, zone in network.zones.items()}
    series: dict[str, list[tuple[float, float]]] = {z: [] for z in network.zones}
    segments = link_segments(network)
    for t in sorted(ticks):
        rows = ticks[t]
        links = nearest_link(segments, [r.x_m for r in rows], [r.y_m for r in rows])
        report = zone_noise_report(
            ambients, [(network.zone_of(lid), r.z_ft) for lid, r in zip(links, rows)])
        for zid in series:
            series[zid].append((t, report[zid]))
    return series


def summarize_zones(series) -> dict[str, tuple[float | None, float | None]]:
    """Per-zone (max, mean) of the increase over ticks with any contribution;
    (None, None) for zones never overflown."""
    out = {}
    for zid, points in series.items():
        vals = [v for _, v in points if v != NO_CONTRIBUTION]
        out[zid] = (max(vals), sum(vals) / len(vals)) if vals else (None, None)
    return out


def metrics_from_trace(trace, network, los_count, mean_return, seed=0,
                       rho=None) -> EpisodeMetrics:
    summary = summarize_zones(zone_noise_series(trace, network))
    means = [m for _, m in summary.values() if m is not None]
    maxes = [mx for mx, _ in summary.values() if mx is not None]
    return EpisodeMetrics(
        los_count=los_count,
        noise_increase_median_db=statistics.median(means) if means else None,
        noise_increase_max_db=max(maxes) if maxes else None,
        histogram=altitude_histogram(trace, network.layers),
        mean_return=mean_return,
        seed=seed,
        rho=rho,
    )


# ---------------------------------------------------------------------------
# Episode evaluation


def run_episode(
    params: dict | None,
    scenario: Scenario,
    sim_config: SimConfig,
    reward_config: RewardConfig,
    seed: int = 0,
    greedy: bool = True,
) -> tuple[EpisodeMetrics, list[TraceRow]]:
    """Full episode under the policy (params=None is the hold-only baseline):
    argmax actions when greedy, otherwise sampled from a generator of seed.
    Returns the episode's metrics and its trace."""
    batch = collect_rollout(scenario, params, sim_config, reward_config,
                            None if greedy else np.random.default_rng(seed))
    metrics = metrics_from_trace(batch.trace, scenario.network, batch.los_count,
                                 batch.mean_return, seed, reward_config.rho)
    return metrics, batch.trace


def check_compatible(layers_ft, scenario: Scenario) -> None:
    if tuple(layers_ft) != tuple(scenario.network.layers.levels_ft):
        raise ValidationError(
            f"checkpoint layers {layers_ft} do not match scenario layers "
            f"{scenario.network.layers.levels_ft}")


# ---------------------------------------------------------------------------
# rho sweep


def tradeoff(rows: list[EpisodeMetrics]) -> list[dict]:
    """One dict per rho of the rows, ascending: median noise increase, mean
    LOS, mean top-layer fraction, mean histogram."""
    by_rho: dict[float, list[EpisodeMetrics]] = {}
    for m in rows:
        by_rho.setdefault(m.rho, []).append(m)
    out = []
    for rho in sorted(by_rho):
        group = by_rho[rho]
        layer_keys = list(group[0].histogram)
        medians = [m.noise_increase_median_db for m in group
                   if m.noise_increase_median_db is not None]
        out.append({
            "rho": rho,
            "median_noise_increase_db": statistics.median(medians) if medians else None,
            "mean_los": sum(m.los_count for m in group) / len(group),
            "top_layer_fraction": sum(
                m.histogram[layer_keys[-1]] for m in group) / len(group),
            "histogram": {
                z: sum(m.histogram[z] for m in group) / len(group)
                for z in layer_keys
            },
        })
    return out


def sweep_rho(
    rho_values: list[float],
    scenario: Scenario,
    train_config: TrainConfig,
    sim_config: SimConfig,
    reward_config: RewardConfig,
    seeds: list[int],
) -> list[EpisodeMetrics]:
    """Train one policy per rho, under reward_config with that rho, and
    evaluate it over the seeds. Returns the episode rows, rho-major, then
    seed."""
    rows: list[EpisodeMetrics] = []
    for rho in rho_values:
        config = replace(reward_config, rho=rho)
        params, _ = rl.train(scenario, train_config, sim_config, config)
        rows += [run_episode(params, scenario, sim_config, config, seed=seed)[0]
                 for seed in seeds]
    return rows


# ---------------------------------------------------------------------------
# Export

EPISODE_COLUMNS = ("rho", "seed", "los_count", "median_noise_increase_db",
                   "max_noise_increase_db", "mean_return")
TRADEOFF_COLUMNS = ("rho", "median_noise_increase_db", "mean_los", "top_layer_fraction")


def _fmt(value) -> str:
    """Report cell: floats at 6 significant digits; None and the
    no-contribution sentinel as an empty cell."""
    if value is None:
        return ""
    if isinstance(value, float):
        if value == NO_CONTRIBUTION:
            return ""
        return f"{value:.6g}"
    return str(value)


def write_csv(path, columns, rows, cell=_fmt) -> None:
    """Header plus one line per row, each value written as cell(value): the
    report format by default; str keeps floats exact (their repr)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([cell(v) for v in row] for row in rows)


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _layer_fractions(histogram: dict[float, float]) -> dict[str, float]:
    return {f"hist_{z:g}": frac for z, frac in histogram.items()}


def metrics_record(m: EpisodeMetrics) -> dict:
    values = (m.rho, m.seed, m.los_count, m.noise_increase_median_db,
              m.noise_increase_max_db, m.mean_return)
    return {**dict(zip(EPISODE_COLUMNS, values)), **_layer_fractions(m.histogram)}


def _export(records: list[dict], columns, path, fmt: str) -> None:
    """Columns first, then any further record keys in first-seen order."""
    if fmt not in ("csv", "json"):
        raise ValidationError(f"unknown export format '{fmt}'")
    columns = list(columns)
    for rec in records:
        columns += [key for key in rec if key not in columns]
    if fmt == "csv":
        write_csv(path, columns, ([rec.get(c) for c in columns] for rec in records))
    else:
        write_json(path, [{c: _json_value(rec.get(c)) for c in columns} for rec in records])


def _json_value(value):
    """The report cell format as a JSON value: a float rounded to its cell,
    null for an empty one."""
    if isinstance(value, float):
        cell = _fmt(value)
        return float(cell) if cell else None
    return value


def export_metrics(metrics_list: list[EpisodeMetrics], path, fmt: str) -> None:
    """One record per episode, as a CSV table or a JSON list."""
    _export([metrics_record(m) for m in metrics_list], EPISODE_COLUMNS, path, fmt)


def export_tradeoff(rows: list[EpisodeMetrics], path) -> None:
    """The per-rho aggregates of sweep rows (tradeoff) as a CSV table."""
    records = [{**{c: agg[c] for c in TRADEOFF_COLUMNS},
                **_layer_fractions(agg["histogram"])} for agg in tradeoff(rows)]
    _export(records, TRADEOFF_COLUMNS, path, "csv")
