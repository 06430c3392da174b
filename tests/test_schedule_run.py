"""The schedule held in one ScheduleRun: it trains the same network as the
former loop that kept its state in locals (``oracles.former_run_schedule``),
bit for bit, and a rerun trains it again."""

from dataclasses import asdict

import pytest

from adq.nn.data import synthetic_dataset
from adq.presets import build_toy_cnn
from adq.scheduler import ScheduleConfig, default_exempt, run_schedule

from oracles import FormerRun, former_run_schedule
from test_pruning import projection_resnet


def _state_bytes(state):
    """Every array of a TrainState as bytes, with its counters and RNG."""
    arrays = {(group, lid, name): arr.tobytes()
              for group, store in (("w", state.weights), ("m", state.m),
                                   ("v", state.v))
              for lid, params in store.items()
              for name, arr in params.items()}
    return arrays, state.step, state.epoch, state.rng.bit_generator.state


def _toy(final_epochs):
    ds = synthetic_dataset(num_classes=10, image_shape=(1, 8, 8),
                           train_per_class=15, test_per_class=5, noise=0.4,
                           seed=3)
    cfg = ScheduleConfig(max_iters=8, epoch_budget=4, saturation_window=2,
                         saturation_epsilon=0.05,
                         final_convergence_epochs=final_epochs)
    return build_toy_cnn(widths=(4, 4, 6, 6)), ds, cfg


def _resnet(strict):
    ds = synthetic_dataset(num_classes=10, image_shape=(3, 8, 8),
                           train_per_class=6, test_per_class=3, noise=0.35,
                           seed=1)
    cfg = ScheduleConfig(max_iters=3, epoch_budget=2, saturation_window=2,
                         saturation_epsilon=0.0, pruning_enabled=True,
                         final_convergence_epochs=1, batch_size=16,
                         strict_ad_pass=strict)
    return projection_resnet(widths=((4, 1), (8, 2)), size=8), ds, cfg


CASES = {
    "toy-quant": lambda: _toy(3),
    "toy-quant-no-final-epochs": lambda: _toy(0),
    "resnet-prune": lambda: _resnet(False),
    "resnet-prune-strict-ad": lambda: _resnet(True),
}


def _copy(layer_map):
    return None if layer_map is None else dict(layer_map)


def _original_channels(run):
    """Each conv's original channel count, None without pruning: the former
    loop's initial_channels, or the counts of the package run's unpruned
    network."""
    if isinstance(run, FormerRun):
        return _copy(run.initial_channels)
    if run.channels is None:
        return None
    return {i: run.unpruned.layer(i).out_channels
            for i in run.unpruned.conv_ids()}


def _outcome(schedule, case):
    """Run one schedule of a case; return everything it produced, the
    arguments of each iteration_callback call included, as comparable
    values."""
    arch, ds, cfg = CASES[case]()
    calls = []

    def callback(run, record):
        calls.append((run.arch.to_dict(), _state_bytes(run.state),
                      dict(run.assignment), default_exempt(run.arch),
                      _copy(run.channels), _original_channels(run),
                      run.ad_history.to_rows(), asdict(record)))

    run = schedule(arch, ds, cfg, seed=0, iteration_callback=callback)
    return {
        "state": _state_bytes(run.state),
        "log": run.log.to_dict(),
        "quant_state": run.quantizer.state_dict(),
        "ad_history": run.ad_history.to_rows(),
        "assignment": (run.assignment, default_exempt(run.arch)),
        "channels": (run.channels, _original_channels(run)),
        "arch": run.arch.to_dict(),
        "calls": calls,
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_same_bits_as_the_former_loop_and_on_rerun(case):
    got = _outcome(run_schedule, case)
    assert got == _outcome(former_run_schedule, case)
    assert got == _outcome(run_schedule, case)
    # each case takes the paths it is here for
    rows = got["log"]["iterations"]
    arch, _, cfg = CASES[case]()
    if case.startswith("toy"):
        assert any(r["epochs"] < cfg.epoch_budget for r in rows)  # saturated
        assert len(rows) < cfg.max_iters  # the fixed point ended it
    else:
        assert rows[0]["channels"] != rows[1]["channels"]  # a rebuild
        assert got["arch"] != arch.to_dict()
