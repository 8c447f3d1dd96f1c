"""Extension — live migration of a hot operator off a contended node."""

from conftest import run_once

from repro.experiments import run_ext_migration


def test_ext_migration(benchmark, archive):
    result = run_once(benchmark, run_ext_migration)
    archive(result)
    extras = result.extras
    fifo_static, fifo_move = extras["fifo static"], extras["fifo migrate"]
    cameo_static, cameo_move = extras["cameo static"], extras["cameo migrate"]

    # only the migrate variants move anything, and the move completes
    assert fifo_static["migrations"] == 0 and cameo_static["migrations"] == 0
    assert fifo_move["migrations"] > 0
    assert cameo_move["migrations"] == fifo_move["migrations"]

    # before the move the placement is the same, so the tails are too
    assert fifo_move["pre_p99"] == fifo_static["pre_p99"]
    assert cameo_move["pre_p99"] == cameo_static["pre_p99"]

    # migration rescues fifo's post-move tail: the hot job was stuck behind
    # bulk backlog and misses its deadline about half the time in place
    assert fifo_static["success"] < 0.70
    assert fifo_move["post_p99"] < 0.75 * fifo_static["post_p99"]
    assert fifo_move["success"] >= fifo_static["success"] + 0.25

    # cameo already meets every deadline in place, so the move buys little
    assert cameo_static["success"] == 1.0 and cameo_move["success"] == 1.0
    assert cameo_static["post_p99"] < fifo_static["post_p99"]
    cameo_gain = cameo_static["post_p99"] - cameo_move["post_p99"]
    fifo_gain = fifo_static["post_p99"] - fifo_move["post_p99"]
    assert cameo_gain < 0.25 * fifo_gain
