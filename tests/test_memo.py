"""The one memo table type behind every cache in dbl, and the README's table of them."""

import re
import sys
import threading
from pathlib import Path

from dbl import cech, normvalue, scalars, spaces, spectrum
from dbl._memo import Memo
from dbl.scalars import int_inf
from dbl.spectrum import BasePoint


def test_a_full_table_drops_its_oldest_entry_and_a_hit_moves_nothing():
    table = Memo(3)
    for k in range(3):
        assert table.store(k, str(k)) == str(k)
    assert table[0] == table.get(0) == "0" and 0 in table  # hits
    assert (table.misses, table.evictions) == (3, 0)
    table.store(3, "3")  # the oldest, 0, goes first although it was read last
    assert list(table) == [1, 2, 3]
    assert (table.misses, table.evictions) == (4, 1)


def test_a_kept_key_keeps_its_first_value():
    table = Memo(2)
    first, second = object(), object()
    assert table.store("k", first) is first
    assert table.store("k", second) is first and table["k"] is first
    assert len(table) == 1 and table.misses == 2


def test_a_value_past_the_bit_bound_is_returned_and_not_kept():
    table = Memo(4, max_bits=8)
    assert table.store("big", "v", bits=9) == "v" and "big" not in table
    assert table.store("small", "v", bits=8) == "v" and "small" in table
    assert table.misses == 2
    unbounded = Memo(4)
    unbounded.store("big", "v", bits=10**6)
    assert "big" in unbounded


def test_reads_are_the_plain_dict_reads():
    for name in ("__getitem__", "get", "__contains__"):
        assert getattr(Memo, name) is getattr(dict, name)
    assert getattr(spectrum._PointValues, "__getitem__") is dict.__getitem__


def test_writes_from_threads_keep_the_bound_and_one_value_per_key():
    # four threads store overlapping runs of keys, each with values of its
    # own: every thread gets the one value kept for a key while the key is
    # kept, and the table never passes its bound
    table = Memo(64)
    got = [{} for _ in range(4)]
    errors = []

    def work(k):
        try:
            for key in range(100 * k, 100 * k + 400):
                got[k][key] = table.store(key % 50, (k, key))
                if len(table) > table.bound:
                    errors.append(len(table))
        except Exception as err:  # reported by the assertion below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(table) == 50 and table.evictions == 0 and table.misses == 1600
    # 50 keys fit, so nothing is dropped: each key has one value for all
    for key in range(50):
        values = {id(v) for out in got for k, v in out.items() if k % 50 == key}
        assert values == {id(table[key])}


# -- the README's "Memory bounds" table ------------------------------------------

MODULES = {"cech": cech, "normvalue": normvalue, "scalars": scalars, "spaces": spaces, "spectrum": spectrum}


def _table(module, name):
    if name == "_PointValues":  # one per pair, in _POINT_VALUES
        return spectrum._point_values(BasePoint.trivial(), int_inf())
    return getattr(module, name)


def _bound(module, cell: str):
    """The value a cell such as "`MEMO_COMPLEXES` = 1024" or "`MAX_POINTS` + 1 = 33" states, checked."""
    if cell in ("", "none"):
        return None
    m = re.fullmatch(r"`(\w+)`(?: \+ (\d+))? = (\d+)|(\d+)", cell)
    assert m, cell
    name, plus, value, literal = m.groups()
    if literal:
        return int(literal)
    assert getattr(module, name) + int(plus or 0) == int(value), cell
    return int(value)


def test_the_readme_table_states_every_table_and_its_bounds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Memory bounds\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `dbl.")
    ]
    assert rows
    listed = set()
    for module_cell, table_cell, _key, bound, bits, eviction, _size in rows:
        module = MODULES[module_cell.strip("`").split(".")[1]]
        name = table_cell.strip("`")
        table = _table(module, name)
        assert isinstance(table, Memo), name
        assert table.bound == _bound(module, bound), name
        assert table.max_bits == _bound(module, bits), name
        assert eviction == "first in, first out"
        listed.add((module.__name__, name))
    # every module-level table is listed
    found = {
        (module.__name__, attr)
        for module in MODULES.values()
        for attr, obj in vars(module).items()
        if isinstance(obj, Memo)
    }
    assert found | {("dbl.spectrum", "_PointValues")} == listed

