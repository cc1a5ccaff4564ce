"""Seeded input generation for the three benchmark workloads.

Everything here is a pure function of the seed: the same seed yields
byte-identical SQL text (``digest`` hashes it so a run can prove that), and
nothing in this module imports or touches the program under test.  The
program only ever receives the strings (or, for ``crowded_pool``, the IR the
benchmark compiles from them before any timing starts).

Names used below:

* a *pair* is two travellers who each ask for the same flight (and, for a
  flight+hotel pair, the same hotel) on condition that the other one gets it;
* a *decoy* is a traveller's alternative request for another destination with
  the same partner: it unifies structurally with the partner's probe but
  cannot ground, so it costs a domain query and is cancelled once the real
  request is booked;
* *noise* waits for a partner that never arrives and must stay pending;
* a *blocked pair* has both members parked from the start: their flight
  domains are each non-empty but disjoint under the price cap, until a base
  data write adds or re-prices a flight that satisfies both.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

DESTINATIONS = ("Paris", "Rome", "Athens", "Berlin", "Madrid", "London", "Vienna", "Lisbon")
ORIGINS = ("New York", "Boston", "Chicago", "San Francisco", "Ithaca")
AIRLINES = ("United", "Lufthansa", "Alitalia", "Delta", "Air France", "Iberia")
DATES = ("2011-06-12", "2011-06-13", "2011-06-14", "2011-06-15", "2011-06-16")

#: Seats/rooms per row: large enough that no workload sells out, so a
#: completable group always stays completable and inventory checks are exact.
INVENTORY = 1_000_000

#: crowded_pool group sizes, cycled: pairs, triples and rings of 4 to 6.
#: Answer latency grows with group size, so the shares (40% pairs, 30%
#: triples, then 10%, 5% and 15%) keep the answer median and p90 inside one
#: size each instead of on the boundary between two.
GROUP_SIZES = (2, 3, 2, 6, 2, 3, 4, 2, 3, 2, 6, 3, 2, 5, 2, 3, 4, 2, 3, 6)

SCHEMA_SQL = """
CREATE TABLE Flights (fno INTEGER NOT NULL, origin TEXT, dest TEXT NOT NULL,
    depart_date TEXT, price REAL, seats INTEGER, airline TEXT, PRIMARY KEY (fno));
CREATE TABLE Hotels (hid INTEGER NOT NULL, city TEXT NOT NULL, name TEXT,
    price REAL, rooms INTEGER, stars INTEGER, PRIMARY KEY (hid));
"""


@dataclass(frozen=True)
class Flight:
    fno: int
    origin: str
    dest: str
    date: str
    price: float
    airline: str

    def values_sql(self) -> str:
        return (
            f"({self.fno}, '{self.origin}', '{self.dest}', '{self.date}', "
            f"{self.price}, {INVENTORY}, '{self.airline}')"
        )


@dataclass
class Dataset:
    flights: list[Flight]
    hotels: list[tuple[int, str, float]]  # (hid, city, price)

    def script(self) -> str:
        """Schema plus data as one SQL script (what ``serve --script`` runs)."""
        flights = ",\n".join(flight.values_sql() for flight in self.flights)
        hotels = ",\n".join(
            f"({hid}, '{city}', 'Hotel {hid}', {price}, {INVENTORY}, 3)"
            for hid, city, price in self.hotels
        )
        return (
            SCHEMA_SQL
            + f"INSERT INTO Flights VALUES\n{flights};\n"
            + f"INSERT INTO Hotels VALUES\n{hotels};\n"
        )


def make_dataset(rng: random.Random, flights_per_dest: int = 8, hotels_per_city: int = 4) -> Dataset:
    flights: list[Flight] = []
    fno = 100
    for dest in DESTINATIONS:
        for _ in range(flights_per_dest):
            flights.append(
                Flight(
                    fno,
                    rng.choice(ORIGINS),
                    dest,
                    rng.choice(DATES),
                    float(rng.randrange(180, 950, 5)),
                    rng.choice(AIRLINES),
                )
            )
            fno += 1
    hotels = []
    hid = 500
    for city in DESTINATIONS:
        for _ in range(hotels_per_city):
            hotels.append((hid, city, float(rng.randrange(60, 420, 5))))
            hid += 1
    return Dataset(flights, hotels)


# ---------------------------------------------------------------------------
# Entangled SQL text
# ---------------------------------------------------------------------------


def pair_sql(
    me: str,
    partner: str,
    dest: str,
    max_price: float,
    hotel: bool = False,
    flight_filter: str | None = None,
) -> str:
    """The travel site's entangled query for one member of a pair."""
    heads = f"'{me}', fno INTO ANSWER Reservation"
    if hotel:
        heads += f", '{me}', hid INTO ANSWER HotelReservation"
    if flight_filter is None:
        flight_filter = f"dest = '{dest}' AND seats > 0 AND price <= {max_price}"
    where = f"fno IN (SELECT fno FROM Flights WHERE {flight_filter})"
    if hotel:
        where += f" AND hid IN (SELECT hid FROM Hotels WHERE city = '{dest}' AND rooms > 0)"
    where += f" AND ('{partner}', fno) IN ANSWER Reservation"
    if hotel:
        where += f" AND ('{partner}', hid) IN ANSWER HotelReservation"
    return f"SELECT {heads} WHERE {where} CHOOSE 1"


def group_sql(me: str, partners: list[str], dest: str, max_price: float) -> str:
    """One member of a named group (or ring) flying together."""
    where = (
        f"fno IN (SELECT fno FROM Flights WHERE dest = '{dest}' AND seats > 0 "
        f"AND price <= {max_price})"
    )
    for partner in partners:
        where += f" AND ('{partner}', fno) IN ANSWER Reservation"
    return f"SELECT '{me}', fno INTO ANSWER Reservation WHERE {where} CHOOSE 1"


def search_sql(dest: str, max_price: float) -> str:
    return (
        "SELECT fno, price FROM Flights "
        f"WHERE dest = '{dest}' AND seats > 0 AND price <= {max_price} ORDER BY price"
    )


def read_op(rng: random.Random, dataset: Dataset, index: int) -> tuple:
    """A travel-site read, cycling through three shapes of different cost.

    A mix keeps each read statistic from sitting on one narrow peak, whose
    median would jump whole steps when the machine's speed changes.
    """
    dest = rng.choice(DESTINATIONS)
    kind = index % 3
    if kind == 0:
        return ("read", search_sql(dest, price_cap(dataset, dest, index)))
    if kind == 1:
        return (
            "read",
            f"SELECT hid, price FROM Hotels WHERE city = '{dest}' AND rooms > 0 ORDER BY price",
        )
    fno = rng.choice(dataset.flights).fno
    return ("read", f"SELECT fno, dest, price, seats FROM Flights WHERE fno = {fno}")


def restock_op(rng: random.Random, dataset: Dataset, index: int) -> tuple:
    """A base-data write: one more seat on a flight, or one more hotel room.

    Two writes in three restock a flight, which scans a table twice the size
    of the hotels', so the write median sits inside the flight mode instead of
    on the boundary between the two.  Returns ``("write", sql, restocked id,
    None)``; flight numbers and hotel ids never overlap, so one counter keys
    both.
    """
    if index % 3 != 2:
        fno = rng.choice(dataset.flights).fno
        return ("write", f"UPDATE Flights SET seats = seats + 1 WHERE fno = {fno}", fno, None)
    hid = rng.choice(dataset.hotels)[0]
    return ("write", f"UPDATE Hotels SET rooms = rooms + 1 WHERE hid = {hid}", hid, None)


def price_cap(dataset: Dataset, dest: str, index: int) -> float:
    """A cap that leaves the destination 3 to 6 flights.

    The domain size cycles with ``index`` instead of following the seed, so
    every seed gives the matcher the same amount of grounding work.
    """
    prices = sorted(flight.price for flight in dataset.flights if flight.dest == dest)
    return prices[2 + index % 4]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

# Operation tuples, in arrival order:
#   ("submit", key, sql, group)   key names the member; group names its group
#   ("read", sql)                 flight search through query()
#   ("answers", relation)         answer-relation read through answers()
#   ("write", sql, id, group)     base-data INSERT/UPDATE; id is the flight or
#                                 hotel restocked by one (or None), group the
#                                 blocked pair the write unblocks (or None)
#   ("cancel", key)               withdraw a parked decoy


@dataclass
class Workload:
    name: str
    seed: int
    dataset: Dataset
    #: Queries parked by set-up: (key, sql, group); group None = never completes.
    standing: list[tuple[str, str, str | None]] = field(default_factory=list)
    #: The timed phase, in order.
    ops: list[tuple] = field(default_factory=list)
    #: Group name -> member keys (every group that can complete).
    groups: dict[str, list[str]] = field(default_factory=dict)
    #: Flight constraints per group: group -> (dest, max_price or None, airline or None).
    constraints: dict[str, tuple[str, float | None, str | None]] = field(default_factory=dict)
    #: Keys that must still be pending at the end.
    noise: set[str] = field(default_factory=set)

    def digest(self) -> str:
        """SHA-256 over every generated input, in order."""
        hasher = hashlib.sha256()
        hasher.update(self.dataset.script().encode())
        for item in self.standing:
            hasher.update(repr(item).encode())
        for op in self.ops:
            hasher.update(repr(op).encode())
        return hasher.hexdigest()


def pairs_sql(seed: int, pairs: int = 6000, window: int = 8) -> Workload:
    """Closed-loop SQL pairs; partners shuffled inside windows of ``window`` pairs.

    Five of every eight pairs also bring an invitation that nobody answers.
    """
    rng = random.Random(seed)
    dataset = make_dataset(rng)
    workload = Workload("pairs_sql", seed, dataset)
    block: list[tuple] = []
    for index in range(pairs):
        dest = rng.choice(DESTINATIONS)
        # One pair in three books a hotel too: a 50/50 split would put the
        # answer median on the boundary between the two kinds.
        hotel = index % 3 == 2
        cap = price_cap(dataset, dest, index)
        group = f"g{index}"
        a, b = f"p{index}a", f"p{index}b"
        workload.groups[group] = [a, b]
        workload.constraints[group] = (dest, cap, None)
        block.append(read_op(rng, dataset, index))
        block.append(("submit", a, pair_sql(a, b, dest, cap, hotel), group))
        block.append(("submit", b, pair_sql(b, a, dest, cap, hotel), group))
        if index % 8 < 5:
            # An invitation the partner never answers: it parks for good.
            # With these, about 60% of arrivals park, which keeps the median
            # submission inside the parking mode instead of on the edge
            # between parking and completing.
            key = f"n{index}"
            workload.noise.add(key)
            block.append(("submit", key, pair_sql(key, f"ghost{index}", dest, cap, hotel), None))
        if index % 5 == 4:
            block.append(restock_op(rng, dataset, index // 5))
        if index % 25 == 24:
            block.append(("answers", "Reservation"))
        if index % window == window - 1:
            rng.shuffle(block)
            workload.ops.extend(block)
            block = []
    rng.shuffle(block)
    workload.ops.extend(block)
    return workload


def crowded_pool(
    seed: int,
    open_groups: int = 200,
    blocked_pairs: int = 700,
    noise: int = 150,
    arrivals: int = 20000,
    burst_every: int = 220,
    burst: int = 24,
) -> Workload:
    """A standing pool of about 2,200 queries plus a closed-loop stream.

    The stream keeps the pool steady: every group it completes is replaced
    by a newly opened one, every blocked pair a write unblocks is replaced
    by a new blocked pair, and decoys are cancelled once their owner books.
    """
    rng = random.Random(seed)
    dataset = make_dataset(rng)
    workload = Workload("crowded_pool", seed, dataset)
    counter = iter(range(10**9))
    next_fno = [10_000]

    def open_group() -> tuple[list[tuple[str, str, str]], tuple[str, str, str]]:
        """Members to park now, and the missing member that completes it later."""
        index = next(counter)
        group = f"g{index}"
        dest = rng.choice(DESTINATIONS)
        cap = price_cap(dataset, dest, index)
        # Sizes 4 to 6 are rings, where each member needs the next one.
        size = GROUP_SIZES[index % len(GROUP_SIZES)]
        keys = [f"{group}m{i}" for i in range(size)]
        workload.groups[group] = keys
        workload.constraints[group] = (dest, cap, None)
        members: list[tuple[str, str, str]] = []
        for i, key in enumerate(keys):
            if size <= 3:
                partners = [other for other in keys if other != key]
            else:
                partners = [keys[(i + 1) % size]]
            members.append((key, group_sql(key, partners, dest, cap), group))
        parked = members[:-1]
        # Decoys: the parked first member also asks the same partner for another
        # destination, so the completing member's probe finds several candidates.
        first_key, _, _ = parked[0]
        for d in range(index % 3):
            other = rng.choice([dest_ for dest_ in DESTINATIONS if dest_ != dest])
            sql = pair_sql(first_key, keys[1], other, price_cap(dataset, other, index + d))
            parked.append((f"{first_key}d{d}", sql, None))
        return parked, members[-1]

    def blocked_pair() -> list[tuple[str, str, str]]:
        index = next(counter)
        group = f"b{index}"
        dest = rng.choice(DESTINATIONS)
        prices = sorted({f.price for f in dataset.flights if f.dest == dest})
        # a takes flights up to the cap, b only dearer ones (or the pair's own
        # charter airline, which has no flight yet): two non-empty domains
        # with an empty intersection until the unblocking write.
        cap = prices[len(prices) // 2]
        airline = f"Charter{index}"
        a, b = f"{group}a", f"{group}b"
        workload.groups[group] = [a, b]
        workload.constraints[group] = (dest, cap, airline)
        dearer = f"dest = '{dest}' AND seats > 0 AND (airline = '{airline}' OR price > {cap})"
        return [
            (a, pair_sql(a, b, dest, cap), group),
            (b, pair_sql(b, a, dest, cap, flight_filter=dearer), group),
        ]

    def unblock(group: str) -> tuple:
        dest, cap, airline = workload.constraints[group]
        fno = next_fno[0]
        next_fno[0] += 1
        flight = Flight(fno, rng.choice(ORIGINS), dest, rng.choice(DATES), cap - 5.0, airline)
        return ("write", f"INSERT INTO Flights VALUES {flight.values_sql()}", None, group)

    pending_open: list[tuple[str, str, str]] = []  # missing members, FIFO
    decoys_of: dict[str, list[str]] = {}
    for _ in range(open_groups):
        parked, missing = open_group()
        workload.standing.extend(parked)
        decoys_of[missing[2]] = [key for key, _, group in parked if group is None]
        pending_open.append(missing)
    blocked: list[str] = []
    for _ in range(blocked_pairs):
        members = blocked_pair()
        workload.standing.extend(members)
        blocked.append(members[0][2])
    for index in range(noise):
        dest = rng.choice(DESTINATIONS)
        key = f"n{index}"
        workload.noise.add(key)
        workload.standing.append(
            (key, pair_sql(key, f"ghost{index}", dest, price_cap(dataset, dest, index)), None)
        )

    submitted = 0
    since_burst = 0
    iteration = 0
    while submitted < arrivals:
        iteration += 1
        # Complete the oldest open group, then open a fresh one in its place.
        key, sql, group = pending_open.pop(0)
        workload.ops.append(("submit", key, sql, group))
        for decoy in decoys_of.pop(group, []):
            workload.ops.append(("cancel", decoy))
        parked, missing = open_group()
        for item in parked:
            workload.ops.append(("submit", item[0], item[1], item[2]))
        decoys_of[missing[2]] = [k for k, _, g in parked if g is None]
        pending_open.append(missing)
        submitted += 1 + len(parked)
        since_burst += 1 + len(parked)
        if iteration % 2 == 0:
            workload.ops.append(read_op(rng, dataset, iteration // 2))
        if iteration % 30 == 0:
            workload.ops.append(("answers", "Reservation"))
        if since_burst >= burst_every:
            # A burst of writes: unblock the oldest blocked pair (a fresh one
            # is parked in its place) and restock seats and rooms.  The first
            # arrival after the burst runs the retry sweep.
            since_burst = 0
            workload.ops.append(unblock(blocked.pop(0)))
            for write in range(burst - 1):
                workload.ops.append(restock_op(rng, dataset, write))
            for item in blocked_pair():
                workload.ops.append(("submit", item[0], item[1], item[2]))
            blocked.append(item[2])
            submitted += 2
    return workload


def durable_remote(seed: int, standing_pairs: int = 600, ops: int = 20000) -> Workload:
    """Independent travellers over TCP; partners arrive long after the first member."""
    rng = random.Random(seed)
    dataset = make_dataset(rng)
    workload = Workload("durable_remote", seed, dataset)
    counter = iter(range(10**9))
    waiting: list[tuple[str, str, str]] = []  # second members not yet sent, FIFO

    def new_pair() -> tuple[tuple[str, str, str], tuple[str, str, str]]:
        index = next(counter)
        group = f"g{index}"
        dest = rng.choice(DESTINATIONS)
        cap = price_cap(dataset, dest, index)
        hotel = index % 3 == 0
        a, b = f"g{index}a", f"g{index}b"
        workload.groups[group] = [a, b]
        workload.constraints[group] = (dest, cap, None)
        return (a, pair_sql(a, b, dest, cap, hotel), group), (b, pair_sql(b, a, dest, cap, hotel), group)

    for _ in range(standing_pairs):
        first, second = new_pair()
        workload.standing.append(first)
        waiting.append(second)
    # Blocks of 50 operations with a fixed mix, shuffled within the block:
    # 13 partners completing a pair, 13 new first members, 9 invitations
    # nobody answers, 6 reads, 1 answers() read and 8 restocks.  About 63%
    # of submissions park, so the median submission sits inside the parking
    # mode rather than on its edge; 8 restocks give a 25 s run 160 writes,
    # enough for a p90 that repeats from run to run.
    mix = (
        ["second"] * 13 + ["first"] * 13 + ["noise"] * 9
        + ["read"] * 6 + ["answers"] + ["write"] * 8
    )
    while len(workload.ops) < ops:
        block = list(mix)
        rng.shuffle(block)
        for kind in block:
            if kind == "second":
                workload.ops.append(("submit",) + waiting.pop(0))
            elif kind == "first":
                first, second = new_pair()
                workload.ops.append(("submit",) + first)
                waiting.append(second)
            elif kind == "noise":
                key = f"n{len(workload.ops)}"
                dest = rng.choice(DESTINATIONS)
                cap = price_cap(dataset, dest, len(workload.ops))
                workload.noise.add(key)
                workload.ops.append(("submit", key, pair_sql(key, f"ghost-{key}", dest, cap), None))
            elif kind == "read":
                workload.ops.append(read_op(rng, dataset, len(workload.ops)))
            elif kind == "answers":
                workload.ops.append(("answers", "Reservation"))
            else:
                workload.ops.append(restock_op(rng, dataset, len(workload.ops)))
    return workload


GENERATORS = {
    "pairs_sql": pairs_sql,
    "crowded_pool": crowded_pool,
    "durable_remote": durable_remote,
}
