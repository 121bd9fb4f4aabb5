"""The benchmark's workloads: one training task each, always 4 ranks.

Four ranks give the binomial tree an interior forwarder (rank 2 relays
rank 3), so every workload exercises folding on a non-master rank.  Each
workload runs through a public launcher (``run_inproc`` or ``run_tcp``).
``iterations`` sizes one launcher call, a *trial*, at roughly half a
second to a second of training loop, so per-call set-up stays a small
share and a timed run holds many trials to take medians over.
"""

from __future__ import annotations

from dataclasses import dataclass

from pipesgd import net
from pipesgd.engine import RankResult, TrainConfig
from pipesgd.harness import run_inproc, run_tcp
from pipesgd.transport import LatencyModel

WORLD_SIZE = 4
# Bounded so that a wedged protocol fails a trial well inside the run's
# time limit instead of hanging it (the engine default is 30 s).
FINALIZE_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str
    iterations: int
    why: str
    layer_dims: tuple[int, ...] = TrainConfig.layer_dims
    batch_size: int = TrainConfig.batch_size
    dataset_size: int = TrainConfig.dataset_size
    compute_inflation_ns: int = 0
    latency: LatencyModel | None = None

    def config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            layer_dims=self.layer_dims,
            world_size=WORLD_SIZE,
            iterations=self.iterations,
            batch_size=self.batch_size,
            dataset_size=self.dataset_size,
            compute_inflation_ns=self.compute_inflation_ns,
            seed=seed,
            finalize_timeout_s=FINALIZE_TIMEOUT_S,
        )

    def dataset(self, config: TrainConfig) -> net.Dataset:
        return net.make_synthetic_dataset(
            config.seed, config.dataset_size, config.specs(), config.input_scale
        )

    def launch(self, config: TrainConfig, dataset: net.Dataset, record: bool) -> list[RankResult]:
        launcher = run_tcp if self.transport == "tcp" else run_inproc
        return launcher(config, dataset, latency=self.latency, record=record)


# Layer dims 64-256-256-256-10: 151 k parameters, 1.2 MB per model, and
# 9 chunks of 64 KiB for each 256x256 layer.
_WIDE_DIMS = (64, 256, 256, 256, 10)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tcp-latency",
            transport="tcp",
            iterations=12,
            layer_dims=(10, 64, 96, 96, 96, 96, 64, 10),
            dataset_size=128,
            compute_inflation_ns=3_000_000,
            latency=LatencyModel(fixed_ns=200_000, per_byte_ns=20.0),
            why="the paper's regime: injected link latency hides under inflated compute, "
            "so schedule overlap and finalize/barrier waits set throughput, not engine CPU cost",
        ),
        Workload(
            name="inproc-small",
            transport="inproc",
            iterations=50,
            why="default config over memcpy transfers with no link threads: engine per-op "
            "cost (folds, updates, notify polls) and GIL contention dominate; tcp changes cannot show",
        ),
        Workload(
            name="tcp-wide",
            transport="tcp",
            iterations=30,
            layer_dims=_WIDE_DIMS,
            batch_size=4,
            why="1.2 MB model, one sample per rank, real sockets: wire framing, payload copies, "
            "recv threads and chunk counting dominate while compute is tiny",
        ),
        # Not in BENCHMARK.json: with every forked rank running a BLAS pool
        # sized to the machine, its throughput varies too much from run to
        # run to gate on (inter-quartile range over ten seeds: 27% of the
        # median on 2 cores).  Kept runnable to study that oversubscription.
        Workload(
            name="tcp-compute",
            transport="tcp",
            iterations=8,
            layer_dims=_WIDE_DIMS,
            why="same bytes as tcp-wide but 16 samples per rank, so net compute does most "
            "of the work, with each forked rank's BLAS pool sized to the whole machine",
        ),
    )
}
