"""Figure 5.15 — Performance and Speedup vs. Complexity (graph of graphs).

The 4-dimensional presentation: a grid of log-log speed traces whose
outer horizontal axis is scene complexity and outer vertical axis is
processor coupling.  Published reading: moving right (bigger scenes)
raises scalability but lowers absolute performance; moving down (looser
coupling) shifts start times right (slower startup/communication).
"""

from benchmarks.conftest import SPEEDUP_READ_TIME
from repro.paper.cluster import INDY_CLUSTER, POWER_ONYX, SP2, trace_family
from repro.paper.perf import graph_of_graphs, speedup_table

SCENE_ORDER = ["cornell-box", "harpsichord-room", "computer-lab"]


def run_grid(profiles):
    grid = {}
    for machine in (POWER_ONYX, SP2, INDY_CLUSTER):
        ranks = [1, 2, 4, 8]
        grid[machine.name] = {
            name: trace_family(machine, profiles[name], ranks, duration_s=320.0)
            for name in SCENE_ORDER
        }
    return grid


def test_fig_5_15(profiles, benchmark):
    grid = benchmark.pedantic(run_grid, args=(profiles,), rounds=1, iterations=1)

    print("\nFigure 5.15 — Performance and Speedup vs. Complexity")
    print(graph_of_graphs(grid))

    # Outer-horizontal reading: on every platform, 8-processor speedup
    # rises with scene complexity while serial absolute rate falls.
    for platform, by_scene in grid.items():
        speedups = [
            speedup_table(by_scene[name], at_time=SPEEDUP_READ_TIME).speedups[8]
            for name in SCENE_ORDER
        ]
        assert speedups == sorted(speedups), (platform, speedups)
        serial_rates = [by_scene[name][1].final_rate() for name in SCENE_ORDER]
        assert serial_rates[-1] < serial_rates[0], platform

    # Outer-vertical reading: looser coupling starts later ("note how the
    # time to the first data point increases as coupling decreases").
    for name in SCENE_ORDER:
        t_onyx = grid[POWER_ONYX.name][name][8].samples[0].time
        t_sp2 = grid[SP2.name][name][8].samples[0].time
        t_indy = grid[INDY_CLUSTER.name][name][8].samples[0].time
        assert t_onyx < t_sp2 < t_indy, name
