"""Command-line surface: simulate, train, sweep, fit-npd, noise-report.

All randomness flows from the --seed and --seeds options. Exit codes: 0
success, 1 validation or usage error (an option click cannot parse included)
or unreadable/unwritable file, 2 runtime error. Reports are written by
metrics' writers, checkpoints by rl.save_checkpoint.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys

import click

from . import metrics as metrics_mod
from . import rl
from .errors import ValidationError, check_number, to_number
from .mdp import RewardConfig
from .network import load_scenario
from .noise import NoiseSample, fit_npd
from .rl import TrainConfig, load_checkpoint, save_checkpoint
from .sim import SimConfig


class _Group(click.Group):
    """The command group. Its own parsing, and its invoke, which runs each
    command's parsing and callback, map every error to an exit code."""

    def make_context(self, *args, **kwargs):
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


@contextlib.contextmanager
def _exit_codes():
    """Exit 1 for an input or usage error (an option click cannot parse
    included), with click's message for its own; exit 2 for any other
    exception. Click's Exit (as after --help) and Abort pass through."""
    try:
        yield
    except (click.ClickException, click.exceptions.Exit, click.Abort) as exc:
        if isinstance(exc, click.UsageError):
            exc.exit_code = 1
        raise
    except (ValidationError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        click.echo(f"runtime error: {exc}", err=True)
        sys.exit(2)


@click.group(cls=_Group)
def main():
    """Noise-aware UAM airspace simulator and trainer."""


def _field_options(cls, names=None):
    """Click options --<field>, typed and defaulted by the fields of config
    dataclass cls (all of them, or those in names)."""
    def decorate(fn):
        for f in dataclasses.fields(cls):
            if names is None or f.name in names:
                fn = click.option(f"--{f.name}", type=type(f.default), default=f.default,
                                  show_default=True)(fn)
        return fn
    return decorate


def _train_options_without(*excluded):
    return _field_options(TrainConfig, [f.name for f in dataclasses.fields(TrainConfig)
                                        if f.name not in excluded])


_sim_options = _field_options(SimConfig)
# --iterations and --seed are per-command options, not shared config.
_train_options = _train_options_without("iterations", "seed")
# sweep writes no periodic checkpoints.
_sweep_train_options = _train_options_without("iterations", "seed", "checkpoint_interval")
_reward_options = _field_options(RewardConfig, ["lam"])


def _config(cls, kw, **values):
    """Config dataclass cls from the parsed options in kw that are its fields,
    overridden by values; a field given by neither keeps its default."""
    return cls(**{f.name: kw[f.name] for f in dataclasses.fields(cls) if f.name in kw} | values)


def _check_output_dirs(*paths):
    """Fail before any work when an output path is empty or its directory is
    missing; None stands for an output not asked for."""
    for path in paths:
        if path == "":
            raise ValidationError("an output path is empty")
        if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValidationError(f"cannot write {path}: its directory does not exist")


def _load_policy(spec_str, scenario):
    """A checkpoint path or 'baseline:hold'. Returns (params, the reward
    fields the policy was trained with: rho, and lam from a checkpoint)."""
    if spec_str == "baseline:hold":
        return None, {"rho": 0.0}
    params, _tc, rc = load_checkpoint(spec_str)
    metrics_mod.check_compatible(rc.layers.levels_ft, scenario)
    return params, {"rho": rc.rho, "lam": rc.lam}


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--policy", required=True, help="checkpoint path or baseline:hold")
@click.option("--seed", type=int, required=True)
@click.option("--trace", "trace_path", type=click.Path(), default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_sim_options
def simulate(scenario_path, policy, seed, trace_path, out_path, **kw):
    """Run one evaluation episode and report its metrics."""
    check_number("--seed", seed, 0, integer=True)
    _check_output_dirs(trace_path, out_path)
    scenario = load_scenario(scenario_path)
    params, reward = _load_policy(policy, scenario)
    sim_cfg = _config(SimConfig, kw)
    reward_cfg = _config(RewardConfig, kw, layers=scenario.network.layers, **reward)
    episode, trace = metrics_mod.run_episode(
        params, scenario, sim_cfg, reward_cfg, seed=seed, greedy=True)
    if trace_path is not None:
        metrics_mod.write_trace(trace, trace_path)
    if out_path is not None:
        metrics_mod.export_metrics([episode], out_path, "json")
    click.echo(json.dumps(metrics_mod.metrics_record(episode), default=str))


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--rho", type=float, required=True)
@click.option("--iterations", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--metrics-log", type=click.Path(), default=None,
              help="CSV of per-iteration training metrics")
@_sim_options
@_train_options
@_reward_options
def train(scenario_path, rho, iterations, seed, out_path, metrics_log, **kw):
    """Train a policy for one rho value and write a checkpoint."""
    _check_output_dirs(out_path, metrics_log)
    scenario = load_scenario(scenario_path)
    sim_cfg = _config(SimConfig, kw)
    reward_cfg = _config(RewardConfig, kw, layers=scenario.network.layers, rho=rho)
    train_cfg = _config(TrainConfig, kw, iterations=iterations, seed=seed)
    params, rows = rl.train(scenario, train_cfg, sim_cfg, reward_cfg,
                            checkpoint_dir=os.path.dirname(os.path.abspath(out_path)))
    save_checkpoint(out_path, params, train_cfg, reward_cfg)
    if metrics_log:
        metrics_mod.write_csv(metrics_log, ("iteration", "mean_return", "los_count",
                                            "top_layer_occupancy"), rows, cell=str)
    click.echo(f"checkpoint written to {out_path} ({len(rows)} iterations)")


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--rhos", required=True, help="comma-separated rho list")
@click.option("--iterations", type=int, required=True)
@click.option("--seeds", required=True, help="comma-separated training seed list")
@click.option("--out-dir", required=True, type=click.Path())
@_sim_options
@_sweep_train_options
@_reward_options
def sweep(scenario_path, rhos, iterations, seeds, out_dir, **kw):
    """Train and evaluate one policy per rho and training seed; emit tradeoff tables."""
    rho_values = _parse_list("--rhos", rhos, float, low=0, high=1)
    seed_values = _parse_list("--seeds", seeds, int, low=0)
    _check_output_dirs(out_dir)
    scenario = load_scenario(scenario_path)
    sim_cfg = _config(SimConfig, kw)
    reward_cfg = _config(RewardConfig, kw, layers=scenario.network.layers, rho=0.0)
    train_cfg = _config(TrainConfig, kw, iterations=iterations)
    os.makedirs(out_dir, exist_ok=True)
    rows = metrics_mod.sweep_rho(rho_values, scenario, train_cfg, sim_cfg, reward_cfg,
                                 seed_values)
    metrics_mod.export_metrics(rows, os.path.join(out_dir, "sweep_episodes.csv"), "csv")
    metrics_mod.export_tradeoff(rows, os.path.join(out_dir, "sweep_tradeoff.csv"))
    click.echo(f"sweep results in {out_dir}")


@main.command(name="fit-npd")
@click.option("--samples", "samples_path", required=True, type=click.Path(),
              help="CSV with columns distance_ft,level_db")
@click.option("--out", "out_path", required=True, type=click.Path())
def fit_npd_cmd(samples_path, out_path):
    """Fit quadratic-in-log regression coefficients to noise samples."""
    _check_output_dirs(out_path)
    samples = metrics_mod.read_csv(samples_path, "samples", lambda rec: NoiseSample(
        to_number(rec["distance_ft"]), to_number(rec["level_db"])))
    c0, c1, c2, rms = fit_npd(samples)
    metrics_mod.write_json(out_path, {"c0": c0, "c1": c1, "c2": c2, "rms_residual": rms})
    click.echo(f"c0={c0:.6g} c1={c1:.6g} c2={c2:.6g} rms={rms:.3g}")


@main.command(name="noise-report")
@click.option("--trace", "trace_path", required=True, type=click.Path())
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def noise_report(trace_path, scenario_path, out_path):
    """Per-zone noise-increase time series recomputed from a saved trace."""
    _check_output_dirs(out_path)
    scenario = load_scenario(scenario_path)
    trace = metrics_mod.read_trace(trace_path, scenario.network)
    series = metrics_mod.zone_noise_series(trace, scenario.network)
    metrics_mod.write_csv(out_path, ("t", "zone", "increase_db"),
                          ((t, zid, inc) for zid in sorted(series) for t, inc in series[zid]))
    click.echo(f"wrote zone report to {out_path}")


def _parse_list(option: str, text: str, kind, **rule) -> list:
    """The comma-separated numbers of an option, each read as kind (int or
    float) and passed by check_number with rule; empty items are skipped, and
    a list with no items or with a repeated item is rejected."""
    items = [check_number(f"{option} item", to_number(tok, kind), **rule,
                          integer=kind is int) for tok in text.split(",") if tok != ""]
    if not items:
        raise ValidationError(f"{option} has no items, got {text!r}")
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ValidationError(f"{option} item {item} is repeated in {text!r}")
    return items


if __name__ == "__main__":
    main()
