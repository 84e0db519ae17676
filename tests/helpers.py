"""Shared table generators, a single-behavior runner and a document fuzzer
for the tests."""

from __future__ import annotations

import copy
import random
from pathlib import Path

import numpy as np

from parsemunge.registry import BEHAVIORS
from parsemunge.tidytable import Distinct, TidyTable, distinct_counts

# An or19 fit of four addresses, as artifact format 4 wrote it: its nmc8 step
# is behaviour nmc7 and stores each train text's extraction under "lookup".
FORMAT_4_OR19 = Path(__file__).parent / "data" / "or19_format4.pmz.json"

WORDS = ["chrome", "safari", "edge", "mac os x", "windows", "lynx", "opera"]


def random_text_cell(rnd: random.Random) -> str:
    return f"{rnd.choice(WORDS)} {rnd.randint(0, 99)}.{rnd.randint(0, 9)}"


def make_random_table(rnd: random.Random, rows: int = 40, want_missing: bool = True
                      ) -> tuple[TidyTable, dict[str, str]]:
    """A small mixed table plus a root assignment map for some of its columns."""
    columns, headers, assignments = [], [], {}
    n_cols = rnd.randint(2, 5)
    for i in range(n_cols):
        header = f"c{i}"
        kind = rnd.choice(["text", "text", "numeric", "binary"])
        if kind == "numeric":
            col = [round(rnd.uniform(-50, 50), 3) for _ in range(rows)]
            root = rnd.choice([None, "nmbr", "mnmx"])
        elif kind == "binary":
            col = [rnd.choice(["yes", "no"]) for _ in range(rows)]
            root = rnd.choice([None, "bnry", "ord3"])
        else:
            col = [random_text_cell(rnd) for _ in range(rows)]
            root = rnd.choice([None, "ord3", "onht", "1010", "or19", "spl2", "nmcm"])
        if want_missing:
            for _ in range(rnd.randint(0, rows // 8)):
                col[rnd.randrange(rows)] = None
        headers.append(header)
        columns.append(col)
        if root:
            assignments[header] = root
    return TidyTable(headers=headers, columns=columns), assignments


def cells(column) -> list:
    """A behaviour's output column as the list of its cells: an array's as
    Python floats."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def run_behavior(name: str, col: list, params: dict | None = None,
                 root_rule: str = "missing_only", state: dict | None = None):
    """Fit the registered behavior ``name`` on the column's distinct counts
    (skipped when a fit ``state`` is given), compile the state and apply it
    to the whole column in one ``apply_distinct`` call, as a step is evaluated.

    Returns the fit state and each output column as a list (``cells``).
    """
    behavior = BEHAVIORS[name]
    if state is None:
        state = behavior.fit(distinct_counts(col), params or {}, root_rule)
    return state, list(map(cells, behavior.apply_distinct(behavior.compile(state), Distinct(col))))


# One value of each JSON type, and of a few container shapes.
RETYPE_PROBES = (None, 5, 2.5, "s", [], ["s"], {}, {"k": "v"}, True, [[]])


def value_paths(node, path=()):
    """The path of every value in a JSON document, containers included."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield (*path, key)
        yield from value_paths(child, (*path, key))


def retyped(doc):
    """Swap each value of ``doc`` in turn for each probe of another type, in
    place: yields the path and the probe while the swap holds, and restores
    the value afterwards."""
    for path in list(value_paths(doc)):
        *parents, key = path
        node = doc
        for p in parents:
            node = node[p]
        stored = node[key]
        for probe in RETYPE_PROBES:
            if type(probe) is not type(stored):
                node[key] = copy.deepcopy(probe)
                yield path, probe
        node[key] = stored
