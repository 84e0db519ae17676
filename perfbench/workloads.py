"""Seeded workload generators.

Each generator builds its tables from ``random.Random(seed)`` alone, so the
same seed gives the same cells in any process. The program under test only
ever sees the returned tables. Every workload also carries a table and labels
for ``permutation_importance`` and the self-check properties that prove it
stresses what it claims.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

IMPORTANCE_ROWS = 500  # train rows the non-importance workloads rank features on
BROWSERS = ["chrome", "safari", "edge", "firefox", "opera", "vivaldi", "brave", "lynx"]


@dataclass
class Workload:
    """Plain-cell tables (str, float or None) plus how to fit them."""

    name: str
    train: dict[str, list]
    test: dict[str, list]
    assignments: dict[str, str]
    options: dict = field(default_factory=dict)
    importance_rows: int = IMPORTANCE_ROWS
    labels: list = field(default_factory=list)
    properties: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    def __post_init__(self):
        self.properties["categoric_uniques"] = sum(
            len({v for v in col if isinstance(v, str)}) for col in self.train.values()
        )


def _pool(rnd: random.Random, size: int, make) -> list[str]:
    """``size`` distinct values from ``make(rnd)`` in first-drawn order."""
    seen = set()
    out = []
    while len(out) < size:
        value = make(rnd)
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


def _serial(rnd: random.Random) -> str:
    return f"{rnd.choice(BROWSERS)} {rnd.randint(1, 999)}.{rnd.randint(0, 99)}"


def _sprinkle_missing(rnd: random.Random, col: list, share: float) -> list:
    return [None if rnd.random() < share else v for v in col]


def _distinct(col) -> set:
    return {v for v in col if v is not None}


def _binary_labels(rnd: random.Random, col: list, hot) -> list[str]:
    """Noisy binary label: mostly "hot" where ``hot(cell)`` holds."""
    return ["hot" if (rnd.random() < 0.85) == bool(hot(v)) else "cold" for v in col]


def parse_highcard(seed: int, rows: int = 8_000, train_pool: int = 4_000,
                   test_extra: int = 400) -> Workload:
    """One high-cardinality or19 serial column plus one numeric column."""
    rnd = random.Random(seed)
    pool = _pool(rnd, train_pool + test_extra, _serial)
    seen_pool = pool[:train_pool]

    def table(values):
        serial = _sprinkle_missing(rnd, [rnd.choice(values) for _ in range(rows)], 0.01)
        amount = [round(rnd.gauss(100.0, 15.0), 2) for _ in range(rows)]
        return {"serial": serial, "amount": amount}

    train, test = table(seen_pool), table(pool)
    uniques = len(_distinct(train["serial"]))
    head = train["serial"][:IMPORTANCE_ROWS]
    return Workload(
        name="parse_highcard",
        train=train,
        test=test,
        assignments={"serial": "or19"},
        labels=_binary_labels(rnd, head, lambda v: v and v[0] in "cefo"),
        properties={"train_uniques": uniques, "rows": rows},
        checks={"train_uniques>=3000": uniques >= 3000},
    )


def _numeric(rnd: random.Random, rows: int) -> list:
    return _sprinkle_missing(rnd, [round(rnd.uniform(0.0, 1000.0), 4) for _ in range(rows)], 0.02)


def wide_roundtrip(seed: int, rows: int = 15_000) -> Workload:
    """Many rows over few uniques: row expansion, numerics, infill and CSV I/O."""
    rnd = random.Random(seed)
    states = _pool(rnd, 50, lambda r: "st" + "".join(r.choice("abcdefghij") for _ in range(4)))
    products = _pool(rnd, 1000, lambda r: f"sku-{r.randint(0, 10**6):07d}")
    serials = _pool(rnd, 200, _serial)

    def table():
        return {
            "flag": [rnd.choice(("yes", "no")) for _ in range(rows)],
            "tier": [rnd.choice(("gold", "silver", "bronze")) for _ in range(rows)],
            "state": [rnd.choice(states) for _ in range(rows)],
            "product": [rnd.choice(products) for _ in range(rows)],
            "serial": [rnd.choice(serials) for _ in range(rows)],
            "amount": _numeric(rnd, rows),
            "score": _numeric(rnd, rows),
            "latency": _numeric(rnd, rows),
        }

    train, test = table(), table()
    numerics = ("amount", "score", "latency")
    distinct_share = min(
        len(_distinct(train[h])) / sum(v is not None for v in train[h]) for h in numerics
    )
    return Workload(
        name="wide_roundtrip",
        train=train,
        test=test,
        assignments={"serial": "or19", "amount": "mnmx"},
        options={"assigninfill": {"meaninfill": list(numerics)}},
        labels=_binary_labels(rnd, train["flag"][:IMPORTANCE_ROWS], lambda v: v == "yes"),
        properties={"numeric_distinct_share": distinct_share, "rows": rows},
        checks={"numeric_distinct_share>=0.95": distinct_share >= 0.95},
    )


_COLORS = ["red", "crimson", "blue", "navy", "green", "olive", "black", "white", "grey"]
_SEARCH_GROUPS = [["RED", "CRIMSON"], ["BLUE", "NAVY"], ["GREEN", "OLIVE"], ["BLACK"]]


def _text_makers():
    return {
        "model": lambda r: f"{r.choice(BROWSERS)}-{r.choice('abcdefgh')}{r.randint(0, 9999)}",
        "site": lambda r: f"{r.choice(['north', 'south', 'east', 'west'])} yard {r.randint(0, 99999)}",
        "address": lambda r: f"{r.randint(1, 9999)} {r.choice(['main', 'oak', 'pine', 'elm'])} st {r.randint(10000, 99999)}",
        "desc": lambda r: f"{r.choice(_COLORS)} {r.choice(['shirt', 'hat', 'coat', 'sock'])} {r.randint(0, 99999)}",
    }


def unseen_drift(seed: int, rows: int = 10_000, train_uniques: int = 2_000,
                 test_uniques: int = 30_000) -> Workload:
    """Apply-time drift: most test distinct values were never seen in train."""
    rnd = random.Random(seed)
    train, test, unseen = {}, {}, {}
    for header, make in _text_makers().items():
        pool = _pool(rnd, test_uniques, make)
        seen = pool[:train_uniques]
        train[header] = [rnd.choice(seen) for _ in range(rows)]
        test[header] = [rnd.choice(pool) for _ in range(rows)]
        distinct_test = _distinct(test[header])
        unseen[header] = len(distinct_test - set(seen)) / len(distinct_test)
    regions = _pool(rnd, 40, lambda r: "rg" + "".join(r.choice("klmnopqrst") for _ in range(5)))
    train["region"] = [rnd.choice(regions) for _ in range(rows)]
    test["region"] = [rnd.choice(regions) for _ in range(rows)]
    share = min(unseen.values())
    return Workload(
        name="unseen_drift",
        train=train,
        test=test,
        assignments={"model": "spl2", "site": "spl5", "address": "nmcm", "desc": "srch"},
        options={"assignparam": {"srch": {"desc": {"aggregate": _SEARCH_GROUPS}}}},
        labels=_binary_labels(rnd, train["desc"][:IMPORTANCE_ROWS], lambda v: v.startswith(("red", "crimson"))),
        properties={"test_unseen_distinct_share": share, "rows": rows},
        checks={"test_unseen_distinct_share>=0.85": share >= 0.85},
    )


def importance_prefix(seed: int, rows: int = 5000) -> Workload:
    """Binary label driven by a hidden serial prefix family, plus ord3 filler."""
    rnd = random.Random(seed)
    families = [("chrome", 0.92), ("safari", 0.08)]
    versions = {
        fam: [(f"{fam} {major}.{minor}", 1 + rnd.random() * 9)
              for major in range(10, 35) for minor in range(10)]
        for fam, _ in families
    }

    def table():
        serial, filler, labels = [], [], []
        for _ in range(rows):
            fam, p_hot = families[rnd.randrange(2)]
            names, weights = zip(*versions[fam])
            serial.append(rnd.choices(names, weights=weights, k=1)[0])
            labels.append("hot" if rnd.random() < p_hot else "cold")
            filler.append(f"n{rnd.randint(0, 30)}")
        return {"serial": serial, "filler": filler}, labels

    train, labels = table()
    test, _ = table()
    return Workload(
        name="importance_prefix",
        train=train,
        test=test,
        assignments={"serial": "or19", "filler": "ord3"},
        importance_rows=rows,
        labels=labels,
        properties={"rows": rows},
        checks={"rows>=5000": rows >= 5000},
    )


GENERATORS = {
    "parse_highcard": parse_highcard,
    "wide_roundtrip": wide_roundtrip,
    "unseen_drift": unseen_drift,
    "importance_prefix": importance_prefix,
}
