"""Extension — checkpointed state recovery vs. pure replay."""

from conftest import run_once

from repro.experiments import run_ext_checkpoint


def test_ext_checkpoint(benchmark, archive):
    result = run_once(benchmark, run_ext_checkpoint)
    archive(result)
    rows = {row[0]: dict(zip(result.headers, row)) for row in result.rows}
    ckpt, replay = rows["checkpoint"], rows["replay only"]

    # only the checkpoint variant snapshots anything
    assert ckpt["ckpts"] > 0 and replay["ckpts"] == 0
    # checkpointed recovery replays strictly fewer messages (bounded by the
    # snapshot interval instead of the whole history)...
    assert ckpt["replayed"] < replay["replayed"]
    # ...recovers no slower, and truncates retransmit buffers at the
    # checkpoint watermark instead of retaining full history
    assert ckpt["recovery (s)"] <= replay["recovery (s)"] + 0.5
    assert ckpt["buf peak"] < replay["buf peak"]
