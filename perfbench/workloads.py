"""The benchmark's workloads: seeded op streams, the system under test
driven through its public entry points, and a model for every output.

Each workload is a closed loop with one client: the next op is issued
only after the previous one returned.  A workload object owns one
Espresso session (re-created by every crashed restart) and a pure-Python
model of what the store must hold; ``apply`` runs one op against the
system, ``check`` compares its output with the model, ``crash`` and
``recover`` restart the session after a power loss, and ``verify``
re-reads everything acknowledged so far.

Every session uses the default configuration (``session_config``), which
also fixes the flush policy: 256-word allocation buffers, no
flush-elision certificate, ``USER_GUARANTEED`` safety, one GC worker and
one mutator.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.api import Espresso, EspressoConfig
from repro.core.safety import SafetyLevel
from repro.fleet.router import FleetConfig
from repro.fleet.store import ShardStore
from repro.nvm.clock import Clock
from repro.pjo.provider import PjoEntityManager
from repro.tpcc import ALL_TPCC_ENTITIES, TpccApplication
from repro.tpcc.model import customer_id, district_id

SAFETY = SafetyLevel.USER_GUARANTEED
ALLOC_BUFFER_WORDS = 256


def session_config(clock: Clock, observatory=None) -> EspressoConfig:
    """The one configuration both sides of every comparison run."""
    return EspressoConfig(clock=clock, observatory=observatory,
                          alloc_buffer_words=ALLOC_BUFFER_WORDS,
                          elision_certificate=None, gc_workers=1,
                          mutators=1)


#: Ops per mix block: every block of this many consecutive ops holds the
#: mix exactly, in a seeded order.
BLOCK = 100


def mixed_kinds(rng: random.Random, count: int,
                mix: Dict[str, int]) -> List[str]:
    """*count* op kinds drawn block by block: each block of BLOCK ops has
    exactly ``mix[kind]`` ops of each kind (percentages summing to 100),
    shuffled by *rng*.  Exact per-block mixes keep the seed from moving
    the workload's composition, only its order and arguments."""
    if sum(mix.values()) != BLOCK:
        raise ValueError(f"mix {mix} does not sum to {BLOCK}")
    block = [kind for kind, share in mix.items() for _ in range(share)]
    kinds: List[str] = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds.extend(block)
    return kinds[:count]


@dataclass(frozen=True)
class Sizes:
    """One workload's size.

    ``ops_per_second`` sets the op count, ``ops_per_second * --seconds``
    rounded to whole mix blocks per round, calibrated so that a run's op
    loops take about ``--seconds`` on a 2-vCPU x86 host.  The count, not
    the host clock, ends the loop, so simulated results repeat exactly.
    The ops are split into ``rounds`` equal rounds, each on a freshly set
    up heap: every round times one set-up, and host throughput compares
    the same window of every round (see ``perfbench/run.py``).
    """

    keys: int = 0
    ops_per_second: float = 0.0
    rounds: int = 3
    #: A crashed restart after every this many ops of a round (0: none).
    crash_every: int = 0
    #: kv-gc: overwrite puts per op before the collection.
    puts_per_op: int = 0

    def op_count(self, seconds: float) -> int:
        per_round = round(self.ops_per_second * seconds / self.rounds)
        if per_round >= BLOCK:
            per_round = per_round // BLOCK * BLOCK
        return self.rounds * max(1, per_round)


def _text(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


# ----------------------------------------------------------------------
# Key-value workloads on repro.fleet.store.ShardStore
# ----------------------------------------------------------------------
class KvWorkload:
    """A ShardStore on one PJH heap, checked against a dict."""

    name = "kv"
    heap_name = "kv"
    key_len = 10
    #: Value lengths are uniform over this range (mean 32 chars).
    value_lens = (24, 40)
    mix = {"get": 100}

    def __init__(self, seed: int, seconds: float, sizes: Sizes) -> None:
        self.sizes = sizes
        rng = random.Random(f"{self.name}:{seed}")
        keys: Set[str] = set()
        while len(keys) < sizes.keys:
            keys.add(_text(rng, self.key_len))
        self.keys = sorted(keys)
        self.initial = {k: self._value(rng) for k in self.keys}
        self.ops = self.make_ops(rng, sizes.op_count(seconds))
        self.model: Dict[str, str] = {}
        #: key -> values a failed (unacknowledged) put may have left.
        self.maybe: Dict[str, Set[str]] = {}
        self.jvm: Optional[Espresso] = None
        self.store: Optional[ShardStore] = None

    def _value(self, rng: random.Random) -> str:
        return _text(rng, rng.randint(*self.value_lens))

    def make_ops(self, rng: random.Random, count: int) -> List[tuple]:
        ops = []
        for kind in mixed_kinds(rng, count, self.mix):
            key = rng.choice(self.keys)
            if kind == "put":
                ops.append(("put", key, self._value(rng)))
            else:
                ops.append(("get", key))
        return ops

    def heap_bytes(self) -> int:
        # Every put allocates a fresh key and value string (~60 words);
        # size the heap to hold a whole round so no collection starts.
        puts = sum(1 for op in self.ops if op[0] == "put")
        words = 64 * 1024 + 96 * (len(self.keys)
                                  + puts // self.sizes.rounds)
        return max(1024 * 1024, words * 8)

    # -- set-up --------------------------------------------------------
    def setup(self, workdir: Path, clock: Clock, observatory=None) -> None:
        """Build the initial state on a fresh heap under *workdir*."""
        self.jvm = Espresso(workdir, config=session_config(
            clock, observatory))
        self.jvm.create_heap(self.heap_name, self.heap_bytes(), SAFETY)
        self.store = ShardStore.create(self.jvm)
        for key in self.keys:
            self.store.put(key, self.initial[key])
        self.model = dict(self.initial)
        self.maybe = {}

    def heap(self):
        return self.jvm.heaps.heap(self.heap_name)

    # -- ops -------------------------------------------------------------
    def apply(self, op: tuple):
        if op[0] == "get":
            return self.store.get(op[1])
        self.store.put(op[1], op[2])
        return None

    def _matches(self, key: str, got: Optional[str]) -> bool:
        if got == self.model[key]:
            self.maybe.pop(key, None)
            return True
        if got in self.maybe.get(key, ()):
            self.model[key] = got
            del self.maybe[key]
            return True
        return False

    def check(self, op: tuple, result) -> bool:
        if op[0] == "get":
            return self._matches(op[1], result)
        self.model[op[1]] = op[2]
        self.maybe.pop(op[1], None)
        return True

    def fail(self, op: tuple) -> None:
        """An op raised: its puts may or may not have landed."""
        if op[0] == "put":
            self.maybe.setdefault(op[1], set()).add(op[2])

    # -- crash and recovery --------------------------------------------
    def crash(self) -> None:
        """Power loss, and a fresh session with nothing mounted yet."""
        self.jvm = self.jvm.restart(crash=True)
        self.store = None

    def recover(self) -> None:
        """Until the store is usable again: load_heap + reattach (which
        rolls back a crash-interrupted undo log)."""
        self.jvm.load_heap(self.heap_name, SAFETY)
        self.store = ShardStore.reattach(self.jvm)

    def verify(self) -> int:
        """Acknowledged writes no longer readable (the rest must match)."""
        return sum(1 for key in self.keys
                   if not self._matches(key, self.store.get(key)))

    def invariants_hold(self) -> bool:
        return self.store.size() == len(self.keys)

    def payload_words(self) -> float:
        return sum(len(k) + len(v) for k, v in self.model.items()) / 8.0

    def space_amp(self) -> float:
        return self.heap().used_words / self.payload_words()


class KvRead(KvWorkload):
    """~1,500 uniform keys (~100k words, ~6x the cache); 95% get."""

    name = "kv-read"
    mix = {"get": 95, "put": 5}


class KvWrite(KvWorkload):
    """128 hot keys (~half the cache); 80% overwrite put, crash-restarts."""

    name = "kv-write"
    mix = {"get": 20, "put": 80}


class KvGc(KvWorkload):
    """A few hundred keys on a default-size fleet shard heap; one op is
    ``puts_per_op`` overwrite puts followed by a persistent collection."""

    name = "kv-gc"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: clflushes issued inside ``persistent_gc`` calls, failed or not.
        self.gc_flushes = 0

    def make_ops(self, rng: random.Random, count: int) -> List[tuple]:
        return [("gc", tuple((rng.choice(self.keys),
                              self._value(rng))
                             for _ in range(self.sizes.puts_per_op)))
                for _ in range(count)]

    def heap_bytes(self) -> int:
        return FleetConfig().shard_size_bytes

    def apply(self, op: tuple):
        for key, value in op[1]:
            self.store.put(key, value)
            self.model[key] = value
            self.maybe.pop(key, None)
        stats = self.heap().device.stats
        before = stats.flushes
        try:
            return self.jvm.persistent_gc()
        finally:
            self.gc_flushes += stats.flushes - before

    def check(self, op: tuple, result) -> bool:
        """The untimed verify: every key reads back its model value."""
        return self.verify() == 0

    def fail(self, op: tuple) -> None:
        return None  # each put updated the model as it was acknowledged


# ----------------------------------------------------------------------
# TPC-C-lite on the PJO provider
# ----------------------------------------------------------------------
ITEMS = 15
DISTRICTS = 2
CUSTOMERS = 3
INITIAL_STOCK = 100
#: Order lines per new order, as shares of a block of 100 orders.
LINES_MIX = {1: 25, 2: 26, 3: 24, 4: 25}


def _item_price(item_id: int) -> float:
    return 1.0 + (item_id % 50) / 10.0


class TpccModel:
    """What TPC-C-lite must return and hold after each transaction."""

    def __init__(self) -> None:
        self.next_order = 1
        self.balance = {c: 0.0 for c in self._customers()}
        self.district_ytd = {d: 0.0 for d in range(DISTRICTS)}
        self.warehouse_ytd = 0.0
        #: customer pk -> (last order id, [(item, qty, amount)])
        self.last_order: Dict[int, tuple] = {}
        self.undelivered: List[int] = []
        self.orders = 0
        self.lines = 0
        self.history = 0

    @staticmethod
    def _customers():
        return [customer_id(district_id(1, d), c)
                for d in range(DISTRICTS) for c in range(CUSTOMERS)]

    def new_order(self, d: int, c: int, lines) -> int:
        order_id = self.next_order
        self.next_order += 1
        self.last_order[customer_id(district_id(1, d), c)] = (
            order_id,
            [(item, qty, _item_price(item) * qty) for item, qty in lines])
        self.undelivered.append(order_id)
        self.orders += 1
        self.lines += len(lines)
        return order_id

    def payment(self, d: int, c: int, amount: float) -> None:
        self.warehouse_ytd = self.warehouse_ytd + amount
        self.district_ytd[d] = self.district_ytd[d] + amount
        pk = customer_id(district_id(1, d), c)
        self.balance[pk] = self.balance[pk] - amount
        self.history += 1

    def order_status(self, d: int, c: int) -> dict:
        pk = customer_id(district_id(1, d), c)
        name = f"customer-1-{d}-{c}"
        last = self.last_order.get(pk)
        if last is None:
            return {"customer": name, "balance": self.balance[pk],
                    "last_order": None, "lines": []}
        return {"customer": name, "balance": self.balance[pk],
                "last_order": last[0], "lines": list(last[1])}

    def delivery(self) -> int:
        return self.undelivered.pop(0) if self.undelivered else 0


class TpccPjo:
    """TpccApplication over PjoEntityManager on one PJH heap."""

    name = "tpcc-pjo"
    heap_name = "tpcc"
    MIX = {"new_order": 45, "payment": 35, "order_status": 12,
           "delivery": 8}

    def __init__(self, seed: int, seconds: float, sizes: Sizes) -> None:
        self.sizes = sizes
        rng = random.Random(f"{self.name}:{seed}")
        kinds = mixed_kinds(rng, sizes.op_count(seconds), self.MIX)
        # Order-line counts are exact in every 100 new orders too, so the
        # tables grow alike on every seed: 1-4 lines, mean 2.49.
        lines = mixed_kinds(rng, kinds.count("new_order"), LINES_MIX)
        self.ops = [self._op(rng, kind, lines.pop() if kind == "new_order"
                             else 0)
                    for kind in kinds]
        self.model = TpccModel()
        #: False once an op failed: its effects are unknown, so later
        #: outputs are checked only against the TPC-C invariants.
        self.exact = True
        self.jvm: Optional[Espresso] = None
        self.app: Optional[TpccApplication] = None

    @staticmethod
    def _op(rng: random.Random, kind: str, lines: int) -> tuple:
        d = rng.randint(0, DISTRICTS - 1)
        c = rng.randint(0, CUSTOMERS - 1)
        if kind == "new_order":
            return ("new_order", d, c,
                    tuple((rng.randint(1, ITEMS), rng.randint(1, 5))
                          for _ in range(lines)))
        if kind == "payment":
            return ("payment", d, c, round(rng.uniform(1.0, 50.0), 2))
        if kind == "order_status":
            return ("order_status", d, c)
        return ("delivery",)

    def heap_bytes(self) -> int:
        # ~55 words per transaction at this scale, with 2x headroom.
        return max(4 * 1024 * 1024,
                   8 * 110 * len(self.ops) // self.sizes.rounds)

    def setup(self, workdir: Path, clock: Clock, observatory=None) -> None:
        """Create the heap under *workdir* and populate the schema."""
        self.jvm = Espresso(workdir, config=session_config(
            clock, observatory))
        self.jvm.create_heap(self.heap_name, self.heap_bytes(), SAFETY)
        self.app = TpccApplication(PjoEntityManager(self.jvm))
        self.app.populate(warehouses=1, districts_per_warehouse=DISTRICTS,
                          customers_per_district=CUSTOMERS, items=ITEMS,
                          initial_stock=INITIAL_STOCK)
        self.model = TpccModel()
        self.exact = True

    def heap(self):
        return self.jvm.heaps.heap(self.heap_name)

    def apply(self, op: tuple):
        app = self.app
        kind = op[0]
        if kind == "new_order":
            return app.new_order(1, op[1], op[2], list(op[3])).id
        if kind == "payment":
            return app.payment(1, op[1], op[2], op[3])
        if kind == "order_status":
            return app.order_status(customer_id(district_id(1, op[1]),
                                                op[2]))
        return app.delivery()

    def check(self, op: tuple, result) -> bool:
        model = self.model
        kind = op[0]
        if kind == "new_order":
            expected = model.new_order(op[1], op[2], op[3])
        elif kind == "payment":
            model.payment(op[1], op[2], op[3])
            expected = None
        elif kind == "order_status":
            expected = model.order_status(op[1], op[2])
        else:
            expected = model.delivery()
        return result == expected or not self.exact

    def fail(self, op: tuple) -> None:
        self.exact = False

    def crash(self) -> None:
        """Power loss, and a fresh session with nothing mounted yet."""
        self.jvm = self.jvm.restart(crash=True)
        self.app = None

    def recover(self) -> None:
        """Until the PJO store is usable again: load_heap + a fresh entity
        manager (whose backend reattaches and rolls back its undo log) +
        schema registration."""
        self.jvm.load_heap(self.heap_name, SAFETY)
        em = PjoEntityManager(self.jvm)
        em.create_schema(ALL_TPCC_ENTITIES)
        self.app = TpccApplication(em)

    def invariants_hold(self) -> bool:
        snap = self.app.consistency_snapshot()
        return (snap["warehouse_ytd_total"] == snap["district_ytd_total"]
                and snap["line_count_sum"] == snap["order_lines"])

    def verify(self) -> int:
        """Committed transactions whose rows are missing after recovery.
        Raises AssertionError on any other disagreement with the model."""
        snap = self.app.consistency_snapshot()
        model = self.model
        if not self.exact:
            return 0
        lost = (max(0, model.orders - snap["orders"])
                + max(0, model.lines - snap["order_lines"])
                + max(0, model.history - snap["history_rows"])
                + max(0, snap["undelivered"] - len(model.undelivered)))
        expected = {
            "orders": model.orders, "order_lines": model.lines,
            "history_rows": model.history,
            "undelivered": len(model.undelivered),
            "district_ytd_total": round(sum(model.district_ytd.values()), 6),
            "warehouse_ytd_total": round(model.warehouse_ytd, 6),
            "balance_total": round(sum(model.balance.values()), 6),
        }
        if not lost and any(snap[k] != v for k, v in expected.items()):
            raise AssertionError(f"recovered TPC-C state {snap} "
                                 f"disagrees with the model {expected}")
        return lost

    def payload_words(self) -> float:
        """Bytes of every live row's column values, in words: 8 per
        number, boolean or reference, UTF-8 length per string."""
        from repro.jpa.model import meta_of
        em = self.app.em
        total = 0
        for cls in ALL_TPCC_ENTITIES:
            meta = meta_of(cls)
            columns = [name for name, _col in meta.columns]
            refs = len(meta.references)
            for row in em.find_all(cls):
                total += 8 * refs
                for column in columns:
                    value = getattr(row, column)
                    total += (len(value.encode()) if isinstance(value, str)
                              else 8)
        return total / 8.0

    def space_amp(self) -> float:
        return self.heap().used_words / self.payload_words()


SIZES: Dict[str, Sizes] = {
    "kv-read": Sizes(keys=1500, ops_per_second=2200),
    "kv-write": Sizes(keys=128, ops_per_second=1000, crash_every=1000),
    "tpcc-pjo": Sizes(ops_per_second=140, rounds=5),
    "kv-gc": Sizes(keys=300, ops_per_second=6, puts_per_op=16),
}

WORKLOADS = {"kv-read": KvRead, "kv-write": KvWrite, "tpcc-pjo": TpccPjo,
             "kv-gc": KvGc}


def make(name: str, seed: int, seconds: float,
         sizes: Optional[Sizes] = None):
    return WORKLOADS[name](seed, seconds,
                           sizes if sizes is not None else SIZES[name])
