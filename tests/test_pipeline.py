"""End-to-end study on an in-config synthetic dataset."""

from __future__ import annotations

import csv

import pytest

from voho.pipeline import ENTROPY_CSV_HEADER, StudyConfig, SyntheticSpec, run_study, validate_config

VARIANTS = ["orig2", "orig4", "delta_0.5", "delta_1"]
INSTRUMENTS = ["SYN000", "SYN001", "SYN002"]

# (n, entropy) per instrument and variant, written by the streaming context
# tree that the batch estimator replaced; estimates agree to 1e-12 relative
PINNED = {
    ("SYN000", "orig2"): (799, 1.007659973493555),
    ("SYN000", "orig4"): (799, 2.0185097291796317),
    ("SYN000", "delta_0.5"): (959, 0.7736039156988347),
    ("SYN000", "delta_1"): (381, 0.9711332451298452),
    ("SYN001", "orig2"): (799, 1.0076401479473776),
    ("SYN001", "orig4"): (799, 2.0185097291861913),
    ("SYN001", "delta_0.5"): (952, 0.7865651391160347),
    ("SYN001", "delta_1"): (374, 0.9139199089376236),
    ("SYN002", "orig2"): (799, 1.0076599384532074),
    ("SYN002", "orig4"): (799, 2.0185097291854586),
    ("SYN002", "delta_0.5"): (949, 0.7590978129901303),
    ("SYN002", "delta_1"): (381, 0.9285431147874372),
}


def study(out_dir, threads: int, variants=("orig2", "orig4")):
    config = StudyConfig(
        synthetic=SyntheticSpec(kind="brownian", instruments=3, n=800, seed=5),
        deltas=[0.5, 1.0],
        variants=list(variants),
        min_daily=100,
        min_skeleton_events=10,
        out_dir=out_dir,
    )
    return run_study(config, threads=threads)


def read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    for threads in (1, 2):
        study(root / f"threads{threads}", threads)
    study(root / "reversed", 1, variants=("orig4", "orig2"))
    return root


def test_writes_the_documented_files_with_their_headers(outputs):
    out = outputs / "threads1"
    headers = {
        "entropy.csv": ENTROPY_CSV_HEADER,
        "corr.csv": ["variant"] + VARIANTS,
        "scatter_orig4_delta_0.5.csv": ["instrument", "value_orig4", "value_delta_0.5"],
        "summary.csv": ["delta", "mean_entropy"],
    }
    headers.update({f"kde_{v}.csv": ["x", "density"] for v in VARIANTS})
    assert sorted(p.name for p in out.iterdir()) == sorted(headers)
    for name, header in headers.items():
        assert read_csv(out / name)[0] == header


def test_rows_follow_input_then_variant_order(outputs):
    out = outputs / "threads1"
    entropy = read_csv(out / "entropy.csv")[1:]
    assert [(r[0], r[1]) for r in entropy] == [(i, v) for i in INSTRUMENTS for v in VARIANTS]
    assert [r[0] for r in read_csv(out / "corr.csv")[1:]] == VARIANTS
    assert [r[0] for r in read_csv(out / "scatter_orig4_delta_0.5.csv")[1:]] == INSTRUMENTS
    assert [r[0] for r in read_csv(out / "summary.csv")[1:]] == ["0.5", "1.0"]


def test_entropy_matches_pinned_estimates(outputs):
    for instrument, variant, n, depth, alphabet, value in read_csv(outputs / "threads1" / "entropy.csv")[1:]:
        want_n, want_value = PINNED[(instrument, variant)]
        assert (int(n), int(depth), int(alphabet)) == (want_n, 20, 4 if variant == "orig4" else 2)
        assert float(value) == pytest.approx(want_value, rel=1e-12, abs=0.0)


def test_output_bytes_do_not_depend_on_thread_count(outputs):
    one, two = outputs / "threads1", outputs / "threads2"
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_output_order_does_not_follow_the_order_variants_are_listed_in(outputs):
    reversed_order = outputs / "reversed"
    assert [r[1] for r in read_csv(reversed_order / "entropy.csv")[1:4]] == VARIANTS[:3]
    assert read_csv(reversed_order / "corr.csv")[0] == ["variant"] + VARIANTS
    for name in ("entropy.csv", "corr.csv"):
        assert (reversed_order / name).read_bytes() == (outputs / "threads1" / name).read_bytes(), name


def test_deltas_that_share_a_name_are_refused():
    config = StudyConfig(synthetic=SyntheticSpec(), deltas=[0.5, 1.0000001, 1.0000002, 1.0000003])
    assert validate_config(config) == [
        "delta 1.0000001 and delta 1.0000002 share the variant name 'delta_1'",
        "delta 1.0000001 and delta 1.0000003 share the variant name 'delta_1'",
    ]
