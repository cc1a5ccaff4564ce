"""Output checks shared by every workload.

A workload runner records what the client saw: every submitted member's
final status and answer tuples, the restocks it wrote, and the final
contents of the answer relations and inventory tables.  :func:`check_outputs`
turns that into a list of failed-check messages (empty means correct).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from gen import INVENTORY, Workload


@dataclass
class Outcome:
    """The client's final view of one run."""

    #: member key -> (status, {relation: [tuple, ...]}) for every submitted member
    members: dict[str, tuple[str, dict[str, list[tuple]]]] = field(default_factory=dict)
    #: groups whose blocking write (if any) has run: they must be answered
    completable: set[str] = field(default_factory=set)
    #: relation -> rows, as answers() returned them at the end
    relations: dict[str, list[tuple]] = field(default_factory=dict)
    #: fno -> (dest, price, airline, seats) and hid -> rooms at the end
    flights: dict[int, tuple[str, float, str, int]] = field(default_factory=dict)
    rooms: dict[int, int] = field(default_factory=dict)
    #: flight number or hotel id -> seats or rooms added by restock writes
    restocked: Counter = field(default_factory=Counter)
    #: members the load generator cancelled successfully
    cancelled: set[str] = field(default_factory=set)
    #: whether bookings decrement inventory (the travel site's side-effect hooks
    #: run in process only; a served system has none)
    bookings_decrement: bool = True


def check_outputs(workload: Workload, outcome: Outcome) -> list[str]:
    problems: list[str] = []
    members = outcome.members
    committed: dict[str, Counter] = {}
    grouped: set[str] = set()

    for group, keys in workload.groups.items():
        grouped.update(keys)
        present = [key for key in keys if key in members]
        answered = [key for key in present if members[key][0] == "answered"]
        if len(present) < len(keys):
            if answered:
                problems.append(f"group {group} answered before all members arrived")
            continue
        if group in outcome.completable and len(answered) < len(keys):
            statuses = {key: members[key][0] for key in keys}
            problems.append(f"group {group} is completable but ended {statuses}")
            continue
        if not answered:
            continue
        if len(answered) < len(keys):
            problems.append(f"group {group} is only partly answered")
            continue
        dest, cap, airline = workload.constraints[group]
        per_relation: dict[str, set] = {}
        for key in keys:
            for relation, rows in members[key][1].items():
                for row in rows:
                    if row[0] != key:
                        problems.append(f"{key} committed a tuple for {row[0]!r}: {row}")
                    per_relation.setdefault(relation, set()).add(tuple(row[1:]))
                    committed.setdefault(relation, Counter())[tuple(row)] += 1
        if "Reservation" not in per_relation:
            problems.append(f"group {group} committed no Reservation")
        for relation, values in per_relation.items():
            if len(values) != 1:
                problems.append(f"group {group} disagrees on {relation}: {sorted(values)}")
        for (fno,) in per_relation.get("Reservation", ()):
            flight = outcome.flights.get(fno)
            if (
                flight is None
                or flight[0] != dest
                or (cap is not None and flight[1] > cap)
                or (airline is not None and flight[2] != airline)
            ):
                problems.append(f"group {group} booked flight {fno} {flight} outside {dest, cap, airline}")

    for key, (status, _tuples) in members.items():
        if key not in grouped and status == "answered":
            problems.append(f"{key} belongs to no completable group but ended answered")

    for relation, rows in outcome.relations.items():
        seen = Counter(tuple(row) for row in rows)
        if seen != committed.get(relation, Counter()):
            extra = seen - committed.get(relation, Counter())
            missing = committed.get(relation, Counter()) - seen
            problems.append(
                f"{relation} differs from the committed groups: "
                f"{sum(extra.values())} extra, {sum(missing.values())} missing"
            )

    for key in sorted(workload.noise):
        if key in members and members[key][0] != "pending":
            problems.append(f"noise query {key} ended {members[key][0]}")
    for key in sorted(outcome.cancelled):
        if members.get(key, ("?",))[0] != "cancelled":
            problems.append(f"cancelled query {key} ended {members.get(key, ('missing',))[0]}")

    booked: Counter = Counter()
    rooms_booked: Counter = Counter()
    if outcome.bookings_decrement:
        booked = Counter(row[1] for row in outcome.relations.get("Reservation", ()))
        rooms_booked = Counter(row[1] for row in outcome.relations.get("HotelReservation", ()))
    if outcome.flights:
        for fno, (_dest, _price, _airline, seats) in outcome.flights.items():
            expected = INVENTORY + outcome.restocked[fno] - booked[fno]
            if seats < 0 or seats != expected:
                problems.append(f"flight {fno} has {seats} seats, expected {expected}")
        for hid, rooms in outcome.rooms.items():
            expected = INVENTORY + outcome.restocked[hid] - rooms_booked[hid]
            if rooms < 0 or rooms != expected:
                problems.append(f"hotel {hid} has {rooms} rooms, expected {expected}")
    return problems[:20]


FLIGHTS_SQL = "SELECT fno, dest, price, airline, seats FROM Flights"
HOTELS_SQL = "SELECT hid, rooms FROM Hotels"


def final_tables(flights: Any, hotels: Any) -> tuple[dict, dict]:
    """Index the results of :data:`FLIGHTS_SQL` and :data:`HOTELS_SQL`."""
    return (
        {row[0]: (row[1], row[2], row[3], row[4]) for row in flights.rows},
        {row[0]: row[1] for row in hotels.rows},
    )


def tuples_of(answer: Optional[Any]) -> dict[str, list[tuple]]:
    if answer is None:
        return {}
    return {relation: [tuple(row) for row in rows] for relation, rows in answer.tuples.items()}
