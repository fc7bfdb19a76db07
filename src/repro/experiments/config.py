"""Experiment parameter records (paper §8 setup).

The paper's full scale — grids of 10…1024 nodes, 100/1000 objects,
1000 maintenance ops per object, 5-run averages — is expressed by the
``paper_scale`` constructors; the default constructors use the same
shapes at bench-friendly scale (cost *ratios* stabilize after a few
hundred operations; see DESIGN.md "Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from repro.graphs.generators import paper_grid_sizes

__all__ = [
    "PAPER_ALGORITHMS",
    "CostExperiment",
    "LoadExperiment",
    "ChaosExperiment",
]

#: the four curves of Figs. 4–7 and 12–15
PAPER_ALGORITHMS: tuple[str, ...] = ("MOT", "STUN", "Z-DAT", "Z-DAT+shortcuts")


@dataclass(frozen=True)
class CostExperiment:
    """Parameters of a maintenance/query cost-ratio sweep (Figs. 4–7, 12–15)."""

    grid_sizes: tuple[tuple[int, int], ...] = tuple(paper_grid_sizes())
    num_objects: int = 100
    moves_per_object: int = 1000
    num_queries: int = 200
    reps: int = 5
    seed: int = 0
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS
    mode: Literal["one_by_one", "concurrent"] = "one_by_one"
    concurrent_batch: int = 10  # paper: max 10 concurrent ops per object
    concurrent_queries_per_batch: int = 2  # queries injected while each batch is in flight
    concurrent_shuffle_seed: int = 7  # seed of the concurrent object shuffle
    mobility: Literal["random_walk", "waypoint", "hotspot"] = "random_walk"

    def scaled(
        self,
        num_objects: int | None = None,
        moves_per_object: int | None = None,
        reps: int | None = None,
        grid_sizes: Sequence[tuple[int, int]] | None = None,
        num_queries: int | None = None,
    ) -> "CostExperiment":
        """A smaller copy for benches (same shape, fewer operations)."""
        return CostExperiment(
            grid_sizes=tuple(grid_sizes) if grid_sizes is not None else self.grid_sizes,
            num_objects=num_objects if num_objects is not None else self.num_objects,
            moves_per_object=(
                moves_per_object if moves_per_object is not None else self.moves_per_object
            ),
            num_queries=num_queries if num_queries is not None else self.num_queries,
            reps=reps if reps is not None else self.reps,
            seed=self.seed,
            algorithms=self.algorithms,
            mode=self.mode,
            concurrent_batch=self.concurrent_batch,
            concurrent_queries_per_batch=self.concurrent_queries_per_batch,
            concurrent_shuffle_seed=self.concurrent_shuffle_seed,
            mobility=self.mobility,
        )


@dataclass(frozen=True)
class LoadExperiment:
    """Parameters of a load comparison (Figs. 8–11)."""

    grid_side: int = 32  # 1024 nodes, as in the paper
    num_objects: int = 100
    moves_per_object: int = 10  # Figs. 9/11: after 10 maintenance ops per object
    after_moves: bool = False  # False: just after initialization (Figs. 8/10)
    seed: int = 0
    algorithms: tuple[str, ...] = ("MOT-balanced", "STUN")
    threshold: int = 10  # the paper's "nodes with load > 10" call-out


@dataclass(frozen=True)
class ChaosExperiment:
    """Parameters of one fault-injection run (``python -m repro chaos``).

    The workload shape mirrors :class:`CostExperiment` on a single
    grid; the fault knobs build a :class:`repro.sim.faults.FaultPlan`.
    Crash windows are staggered over the run and each crashed sensor
    restarts after ``crash_duration`` time units (``crash_duration=0``
    makes crashes permanent). ``fault_seed`` seeds both the fault plan
    and the choice of crash victims, independently of the workload seed.
    """

    side: int = 8
    num_objects: int = 10
    moves_per_object: int = 40
    num_queries: int = 40
    seed: int = 0
    algorithm: str = "MOT"
    message_loss: float = 0.1
    delay_jitter: float = 0.25
    num_crashes: int = 1
    crash_duration: float = 40.0
    fault_seed: int = 1
    batch: int = 10
    queries_per_batch: int = 2
    shuffle_seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 <= self.message_loss < 1.0:
            raise ValueError("message_loss must be in [0, 1)")
        if self.num_crashes < 0 or self.crash_duration < 0:
            raise ValueError("num_crashes and crash_duration must be >= 0")
