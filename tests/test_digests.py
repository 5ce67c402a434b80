"""Stored SHA-256 digests of small end-to-end runs.

Unlike the rerun check in criterion 11, these compare against constants, so
a change that alters any output byte (a reordered sum, a different draw, a
new column) fails here even when it is self-consistent.  Re-pin a digest
only in a change that states the numeric difference on purpose.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from mskd.harness import (
    make_closed_benchmark,
    make_open_benchmark,
    misleading_proxy,
    proxy_overrides,
    setting_config,
)
from mskd.synthetic import teacher_stacks
from mskd.train import TrainConfig, make_pools, pass_at_k_eval, run_pipeline

ARTIFACTS = ("metrics.csv", "disc.json", "student.json")

CLOSED_LINEAR = {
    "metrics.csv": "9d9a29329848f8db7f9fcdb1b01bc54d4806e4aec620bd4fc6c1725d9c457bf1",
    "disc.json": "6bfecad0de5013a7a09d70bcef5c3c7ef4e6abe202aa912b52f764d9fe2951a7",
    "student.json": "845740c63c986703891b905d97bd4f4bc2cee6470698d52054a1ac00f0b47a48",
}
CLOSED_HIDDEN = {
    "metrics.csv": "892badb6fe4562aca7cee574af671beb9983c2cbb35a1f988d6b489f77effb16",
    "disc.json": "86ed08d7eaab0a70c471bd0e95ef24db646c660df04511ac6935eab9204b1550",
    "student.json": "231f448722c92232440feb714331c001a221ccb11e2f94d69ee22d9516c67725",
}
# seed 2**33 is the two 32-bit words (0, 2), so every stream key is one word
# longer than with a seed below 2**32
MULTI_WORD_SEED = {
    "metrics.csv": "4e05c11a1e073049a779f24c189482912f4268d70897fe750b1dfd9d01c4f5fa",
    "disc.json": "a249f45ac1006c24533e25f5b14910b9d1ede9cd55e890b645816797926a2dd2",
    "student.json": "03b15dd755f0bee7f290a0a3818cd16d66e07588db0ccdd899a257ae2316e5cc",
}
OPEN_PROXY = {
    "overrides": "527e2e8c0d3cc03f118b5206f4b971e778070a795b9d1d5724622f7c9bb99cb2",
    "metrics.csv": "6bb3fb80515a59f4aabf9ca1c9f922c24205f86f377c801b4e7a8a0328ede7dd",
    "disc.json": "82cbeff3c39281e5465d16c12c6c335278b5bdd213233d40d860b265eabc7f27",
    "student.json": "d217c6f9bf6cfd0c685d1ce226218f95d69e704815be51c134930a99164f0ee8",
}
PASSK = "45e657e036483008b4f5ad5ac3fb6c25b2f9934c2e4a99ec8b1a36d0051457f5"
# calibrations no perfbench workload runs: a teacher temperature below 1
# with a tighter nucleus and a retention target, and the open benchmark
CLOSED_TEMPERED_CALIBRATION = {
    "probs": "523745f527199384504982486f7ebdcdc3f4d0741660fca667978dc7af8ff033",
    "concentration": "1af7e1ebeb9edf089e3e1eed691f60b4fe6cd7213accf675727edc45c5484f92",
    "meta": "259406932d2777ab43a9b52475f331d46d3d88005b732045b054a45b8847fabb",
}
OPEN_CALIBRATION = {
    "probs": "b99123d8899eb742afb231b22bf89f24ddb7181af74657ea86b719972bf274c8",
    "concentration": "4b520c616be2fcf82a570678a1afff2edb77a42da9d4715e1dba3ee4a706f903",
    "meta": "520eba1ff4fc570dcb8b3c2bf68bebbc23030c4936b826c31c1d07cec43ad58b",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests(art, out) -> dict[str, str]:
    art.save(out)
    return {name: sha((out / name).read_bytes()) for name in ARTIFACTS}


def calibration_digests(bench) -> dict[str, str]:
    """The teacher's probability bytes by example id, its concentrations and
    the benchmark meta, hashed as perfbench's calibrate workload does."""
    teacher = bench.teacher
    h = hashlib.sha256()
    for ex_id in sorted(teacher.probs):
        h.update(ex_id.encode())
        h.update(np.ascontiguousarray(teacher.probs[ex_id], dtype=np.float64).tobytes())
    concs = {k: float(v) for k, v in teacher.concentration.items()}
    return {
        "probs": h.hexdigest(),
        "concentration": sha(json.dumps(concs, sort_keys=True).encode()),
        "meta": sha(json.dumps(bench.meta, sort_keys=True).encode()),
    }


@pytest.fixture(scope="module")
def closed():
    return make_closed_benchmark(n_mcq=4, n_temporal=4, retention_target=None)


def arm_d(hidden_dim: int) -> TrainConfig:
    return setting_config("D", TrainConfig(seed=3, hidden_dim=hidden_dim))


def test_closed_arm_d_linear_digests(closed, tmp_path):
    art = run_pipeline(closed.examples, arm_d(0), teacher=closed.teacher)
    assert artifact_digests(art, tmp_path) == CLOSED_LINEAR


def test_closed_arm_d_hidden_digests(closed, tmp_path):
    art = run_pipeline(closed.examples, arm_d(2), teacher=closed.teacher)
    assert artifact_digests(art, tmp_path) == CLOSED_HIDDEN


def test_closed_arm_d_multi_word_seed_digests(closed, tmp_path):
    cfg = setting_config("D", TrainConfig(seed=2**33))
    art = run_pipeline(closed.examples, cfg, teacher=closed.teacher)
    assert artifact_digests(art, tmp_path) == MULTI_WORD_SEED


def test_open_proxy_override_digests(tmp_path):
    bench = make_open_benchmark(n_examples=4, space_size=6)
    cfg = TrainConfig(seed=5, k=6, epochs_stage1=6, epochs_stage2=10)
    pools = make_pools(teacher_stacks(bench.teacher, bench.examples), cfg)
    prng = np.random.default_rng(np.random.SeedSequence([5, 23]))
    proxies = {ex.id: misleading_proxy(bench.slot_scores[ex.id], prng, 0.85, 0.05) for ex in bench.examples}
    dists, targets = proxy_overrides(bench.examples, pools, proxies)
    overrides = json.dumps(
        {"dists": {k: list(d.probs) for k, d in dists.items()}, "targets": targets},
        sort_keys=True,
    )
    art = run_pipeline(bench.examples, cfg, pools=pools, sft_targets=targets, match_overrides=dists)
    got = {"overrides": sha(overrides.encode()), **artifact_digests(art, tmp_path)}
    assert got == OPEN_PROXY


def test_pass_at_k_curve_digest(closed):
    # a barely trained student keeps mass spread, so every slot's nucleus mass
    # moves the curve
    cfg = replace(arm_d(0), epochs_stage1=1, epochs_stage2=0)
    student = run_pipeline(closed.examples, cfg, teacher=closed.teacher).student
    curve = pass_at_k_eval(
        student, closed.examples, [1, 2, 3, 4, 6], temperature=0.7, top_p=0.9,
        success_threshold=0.5,
    )
    assert sha(repr(curve).encode()) == PASSK


def test_closed_tempered_calibration_digests():
    bench = make_closed_benchmark(
        n_mcq=6, n_temporal=9, option_count=5, temperature=0.7, top_p=0.8,
        retention_target=0.6, seed=3,
    )
    assert calibration_digests(bench) == CLOSED_TEMPERED_CALIBRATION


def test_open_calibration_digests():
    assert calibration_digests(make_open_benchmark(seed=2)) == OPEN_CALIBRATION
