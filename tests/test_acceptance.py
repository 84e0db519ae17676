"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the assertions carry the same bounds either way.
"""

import random
import statistics
import time

import parsemunge as pm
from parsemunge.extract_search import nmcm_extract
from parsemunge.importance import TASK_CLASSIFICATION, builtin_tree, permutation_importance
from parsemunge.stringparse import OverlapScanConfig, scan_overlaps
from parsemunge.tidytable import TidyTable

from .helpers import make_random_table, run_behavior
from .oracles import oracle_extract, oracle_single_assignment


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_scan_oracle_equivalence():
    """Single-id scan matches the DP/enumeration oracle on 500 random sets."""
    rnd = random.Random(1001)
    start = time.perf_counter()
    checked = 0
    for _ in range(500):
        n = rnd.randint(2, 12)
        uniques = {
            "".join(rnd.choice("abcdef") for _ in range(rnd.randint(1, 12)))
            for _ in range(n)
        }
        got = scan_overlaps(uniques, OverlapScanConfig(min_len=2)).assignment
        expected = oracle_single_assignment(uniques, min_len=2)
        assert got == expected, (sorted(uniques), got, expected)
        checked += 1
    elapsed = time.perf_counter() - start
    _report(1, checked == 500 and elapsed < 10.0,
            f"{checked} random sets match the LCS oracle in {elapsed:.2f}s (< 10s)")


def test_criterion_2_replay_bit_consistency():
    """fit -> apply replay and serialize round trips are bit-identical."""
    rnd = random.Random(2002)
    start = time.perf_counter()
    for _ in range(100):
        table, assignments = make_random_table(rnd, rows=rnd.randint(10, 50))
        encoded, artifact = pm.fit(table, assignments)
        replay = pm.apply(artifact, table)
        assert replay == encoded
        blob = pm.serialize(artifact)
        rebuilt = pm.deserialize(blob)
        assert pm.serialize(rebuilt) == blob
        assert pm.apply(rebuilt, table) == encoded
    elapsed = time.perf_counter() - start
    _report(2, elapsed < 30.0,
            f"100 random tables replay bit-identically in {elapsed:.2f}s (< 30s)")


def test_criterion_3_inversion_round_trip():
    """invert(apply) recovers the normalized source for every categoric root."""
    rnd = random.Random(3003)
    entries = ["chrome 62.0", "chrome 49.0", "safari 11.0", "MAC os", "lynx 1"]
    failures = []
    for root in ("ord3", "onht", "bnry", "1010", "or19"):
        pool = entries[:2] if root == "bnry" else entries
        col = [rnd.choice(pool) for _ in range(40)]
        for _ in range(5):
            col[rnd.randrange(40)] = None
        table = TidyTable(headers=["src"], columns=[col])
        encoded, artifact = pm.fit(table, {"src": root})
        recovered, failed = pm.invert(artifact, encoded)
        expected = [
            None if c is None else (c.upper() if root == "or19" else c)
            for c in col
        ]
        narw = encoded.column("src_NArw")
        ok = (failed == []
              and recovered.column("src") == expected
              and all((n == 1.0) == (c is None) for n, c in zip(narw, col)))
        if not ok:
            failures.append(root)
    _report(3, not failures,
            "roots ord3/onht/bnry/1010/or19 invert to the normalized source; "
            f"NArw marks exactly the missing rows (failures: {failures or 'none'})")


def test_criterion_4_encoder_numerics():
    """nmbr standardization bounds and 1010 width formula for N in [1, 300]."""
    import math

    from parsemunge.encoders import binary_width

    rnd = random.Random(4004)
    worst_mean, worst_std = 0.0, 0.0
    for _ in range(50):
        col = [rnd.uniform(-100, 100) for _ in range(rnd.randint(2, 200))]
        state, [encoded] = run_behavior("nmbr", col)
        if state["std"] > 0:
            m = sum(encoded) / len(encoded)
            s = math.sqrt(sum((v - m) ** 2 for v in encoded) / len(encoded))
            worst_mean = max(worst_mean, abs(m))
            worst_std = max(worst_std, abs(s - 1.0))
    widths_ok = all(
        binary_width(n) == math.ceil(math.log2(n + 1)) for n in range(1, 301)
    )
    ok = worst_mean < 1e-9 and worst_std < 1e-9 and widths_ok
    _report(4, ok,
            f"nmbr |mean| max {worst_mean:.2e} (< 1e-9), |std-1| max {worst_std:.2e} "
            f"(< 1e-9); 1010 widths match ceil(log2(N+1)) for N in [1,300]")


def test_criterion_5_extraction_oracle():
    """nmcm_extract equals the enumerate-all-substrings oracle on 10k strings."""
    rnd = random.Random(5005)
    alphabet = "abz0123456789,. -"
    mismatches = 0
    for _ in range(10_000):
        s = "".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 24)))
        if nmcm_extract(s) != oracle_extract(s):
            mismatches += 1
    anchor = nmcm_extract("123 Main St 94107")
    ok = mismatches == 0 and anchor == 94107.0
    _report(5, ok,
            f"10,000 random strings match the extraction oracle "
            f"(mismatches: {mismatches}); '123 Main St 94107' -> {anchor}")


def _serial_column(rnd: random.Random, n_rows: int, uniques: int = 200):
    prefixes = ["chrome", "safari", "edge", "firefox"]
    pool = []
    while len(set(pool)) < uniques:
        pool.append(f"{rnd.choice(prefixes)} {rnd.randint(10, 99)}.{rnd.randint(0, 9)}")
    pool = sorted(set(pool))[:uniques]
    return [rnd.choice(pool) for _ in range(n_rows)]


def test_criterion_6_apply_speed():
    """apply wall time is at most 0.75x fit wall time on an or19 column."""
    rnd = random.Random(6006)
    col = _serial_column(rnd, 50_000, uniques=200)
    table = TidyTable(headers=["serial"], columns=[col])
    _, warm = pm.fit(table, {"serial": "or19"})  # warm allocator/caches
    pm.apply(warm, table)
    ratios = []
    batch = 3  # time identical workloads in batches to ride out scheduler jitter
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(batch):
            _, artifact = pm.fit(table, {"serial": "or19"})
        fit_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(batch):
            pm.apply(artifact, table)
        apply_time = time.perf_counter() - t0
        ratios.append(apply_time / fit_time)
    median_ratio = statistics.median(ratios)
    _report(6, median_ratio <= 0.75,
            f"apply/fit wall-time median ratio {median_ratio:.3f} (<= 0.75) over 5 runs, "
            f"50k rows, 200 uniques")


def _prefix_family_dataset(seed: int, rows: int = 5000):
    """Binary label driven by a hidden serial prefix family, plus a noise column."""
    rnd = random.Random(seed)
    families = [("chrome", 0.92), ("safari", 0.08)]
    versions = {}
    for fam, _ in families:
        # uneven per-version weights keep ord3 frequency ranks family-interleaved
        versions[fam] = [
            (f"{fam} {major}.{minor}", 1 + rnd.random() * 9)
            for major in range(10, 35) for minor in range(0, 10)
        ]
    feature, labels, noise = [], [], []
    for _ in range(rows):
        fam, p_hot = families[rnd.randrange(2)]
        names, weights = zip(*versions[fam])
        feature.append(rnd.choices(names, weights=weights, k=1)[0])
        labels.append("hot" if rnd.random() < p_hot else "cold")
        noise.append(f"n{rnd.randint(0, 30)}")
    table = TidyTable(headers=["serial", "filler"], columns=[feature, noise])
    return table, labels


def test_criterion_7_parse_beats_ordinal():
    """or19 encoding beats plain ord3 on accuracy and metric1, 5-seed average."""
    acc_parse, acc_ordinal, m1_parse, m1_ordinal = [], [], [], []
    for seed in range(5):
        table, labels = _prefix_family_dataset(seed)
        for root, acc_list, m1_list in (
            ("or19", acc_parse, m1_parse),
            ("ord3", acc_ordinal, m1_ordinal),
        ):
            _, artifact = pm.fit(table, {"serial": root, "filler": "ord3"})
            adapter = builtin_tree(TASK_CLASSIFICATION, seed=seed)
            report = permutation_importance(artifact, table, labels, adapter,
                                            val_fraction=0.2, seed=seed)
            acc_list.append(report.base_score)
            m1_list.append(report.metric1["serial"])
    acc_gap = statistics.mean(acc_parse) - statistics.mean(acc_ordinal)
    m1_gap = statistics.mean(m1_parse) - statistics.mean(m1_ordinal)
    ok = acc_gap >= 0.02 and m1_gap > 0.0
    _report(7, ok,
            f"string-parse or19 accuracy {statistics.mean(acc_parse):.4f} vs ord3 "
            f"{statistics.mean(acc_ordinal):.4f} (gap {acc_gap:.4f} >= 0.02); "
            f"metric1 gap {m1_gap:.4f} > 0")


def test_criterion_8_importance_sanity():
    """Noise metric1 stays near zero; informative feature ranks first, 10 seeds."""
    worst_noise = 0.0
    informative_first = True
    for seed in range(10):
        rnd = random.Random(900 + seed)
        rows = 2000
        informative = [rnd.choice(["red", "green", "blue", "gray"]) for _ in range(rows)]
        labels = ["hot" if c in ("red", "green") else "cold" for c in informative]
        noise = [rnd.choice(["n1", "n2", "n3", "n4", "n5"]) for _ in range(rows)]
        table = TidyTable(headers=["informative", "noise"],
                          columns=[informative, noise])
        _, artifact = pm.fit(table)
        adapter = builtin_tree(TASK_CLASSIFICATION, seed=seed)
        report = permutation_importance(artifact, table, labels, adapter, seed=seed)
        worst_noise = max(worst_noise, abs(report.metric1["noise"]))
        ranked = sorted(report.metric1, key=lambda k: -report.metric1[k])
        informative_first = informative_first and ranked[0] == "informative"
    ok = worst_noise < 0.05 and informative_first
    _report(8, ok,
            f"noise |metric1| max {worst_noise:.4f} (< 0.05) over 10 seeds; "
            f"informative feature ranked first in every seed: {informative_first}")


def test_criterion_9_srch_equivalence():
    """srch activations equal naive containment on 1000 cells x 20 terms."""
    rnd = random.Random(9009)
    cells = ["".join(rnd.choice("abcdef .-") for _ in range(rnd.randint(1, 20)))
             for _ in range(1000)]
    terms = sorted({"".join(rnd.choice("abcdef") for _ in range(rnd.randint(1, 3)))
                    for _ in range(40)})[:20]
    _, columns = run_behavior("srch", cells, {"search": terms, "case_sensitive": True})
    mismatches = sum(
        1
        for j, term in enumerate(terms)
        for i, cell in enumerate(cells)
        if columns[j][i] != (1.0 if term in cell else 0.0)
    )
    _report(9, mismatches == 0,
            f"1000 cells x {len(terms)} terms match naive containment "
            f"(mismatches: {mismatches})")
