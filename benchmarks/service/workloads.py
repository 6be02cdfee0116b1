"""The service benchmark's four workloads, as seeded request streams.

Each workload names a lattice size, the server's lint mode, the tail
percentile it reports, and a client class.  A client produces one *loop*
at a time: a generator that yields :class:`Request` objects and is sent
the :class:`Response` to each, so a later request may depend on an
earlier reply (``governed_migrate`` edits the DDL it just read).  Every
choice a client makes comes from a :class:`random.Random` seeded by the
run seed, the workload and the client number, so one seed always gives
the same request bodies for the same replies.  The starting lattice is
fixed per workload (:data:`LATTICE_SEED`).

Why these four (see README.md for the layer map):

* ``read_cards`` -- 10k types, reads only: the HTTP parse/encode/socket
  path and lock-free snapshot reads; bypasses lock, WAL, derivation, lint.
* ``ingest`` -- 1k types, leaf writes only: WAL append + fsync and lock
  hand-off with one-type cones, where group commit would act.
* ``evolve_large`` -- 3k types, the mixed ``random_plan`` stream plus
  card reads beside it: big cones, cycle-probe copies, O(n) publish.
* ``governed_migrate`` -- 250 types under ``lint="error"``: DDL print,
  parse and diff plus the staticcheck gate, all under the writer lock.
"""

from __future__ import annotations

import json
import random
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Generator, Mapping

from repro.analysis.workload import LatticeSpec, random_lattice, random_plan
from repro.core.lattice import TypeLattice
from repro.core.operations import AddType

__all__ = [
    "Request",
    "Response",
    "Workload",
    "WORKLOADS",
    "initial_lattice",
    "build_operations",
    "add_property_to_ddl",
]


@dataclass(frozen=True)
class Request:
    """One HTTP request of a loop.

    ``ops`` lists the operation dicts a write carries, so the runner can
    check that every acknowledged one is durable; a migrate's operations
    are only known from its reply.
    """

    method: str
    path: str
    body: bytes | None = None
    write: bool = False
    ops: tuple[dict, ...] = ()


@dataclass(frozen=True)
class Response:
    status: int
    headers: Mapping[str, str] = field(default_factory=dict)
    body: bytes = b""


Loop = Generator[Request, Response, None]


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


#: The schema is a fixture of its workload, the same for every run seed;
#: the seed draws the traffic.  Lattices drawn per seed moved peak memory
#: and set-up time by 5-7% between seeds without telling two commits
#: apart.
LATTICE_SEED = 0


def initial_lattice(n_types: int) -> TypeLattice:
    """The lattice every run of a workload starts from.

    Extra essential supertypes are off: with them a 10k lattice takes
    several times longer to build, and the workloads do not need them.
    """
    return random_lattice(LatticeSpec(
        n_types=n_types, seed=LATTICE_SEED, extra_essential_prob=0.0
    ))


def build_operations(lattice: TypeLattice) -> list[AddType]:
    """The AT operations that rebuild ``lattice``, in creation order."""
    special = {lattice.root, lattice.base}
    # random_lattice names types T_0000.. in creation order, so sorting
    # puts every supertype before its subtypes.
    return [
        AddType(t, tuple(sorted(lattice.pe(t) - special)),
                tuple(sorted(lattice.ne(t))))
        for t in sorted(lattice.types() - special)
    ]


class _Client:
    def __init__(self, seed: int, cid: int, lattice: TypeLattice,
                 workload: str) -> None:
        self.cid = cid
        self.rng = random.Random(f"{seed}/{workload}/{cid}")
        self.names = sorted(lattice.types() - {lattice.root, lattice.base})
        self.count = 0

    def card(self) -> Request:
        return Request("GET", f"/v1/types/{self.rng.choice(self.names)}")


class ReadCardsClient(_Client):
    """9 in 10 requests read one card, 1 in 10 lists every type."""

    def loop(self) -> Loop:
        self.count += 1
        if self.count % 10 == 0:
            yield Request("GET", "/v1/types")
        else:
            yield self.card()


class IngestClient(_Client):
    """AT of a fresh leaf under 2 existing types, alternating with MT-AB
    on one of this client's own fresh types (both one-type cones)."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.own: list[str] = []

    def loop(self) -> Loop:
        self.count += 1
        if self.count % 2 or not self.own:
            name = f"T_i{self.cid}_{self.count:06d}"
            op = {
                "code": "AT",
                "name": name,
                "supertypes": sorted(self.rng.sample(self.names, 2)),
                "properties": [],
            }
            self.own.append(name)
        else:
            op = {
                "code": "MT-AB",
                "subject": self.rng.choice(self.own),
                "prop": {
                    "semantics": f"i{self.cid}.{self.count:06d}",
                    "name": f"p{self.rng.randrange(12)}",
                    "domain": None,
                },
            }
        yield Request("POST", "/v1/apply", _encode({"op": op}), True, (op,))


class EvolveLargeClient(_Client):
    """One write from the seeded ``random_plan`` stream (rejects
    included), then two card reads that run beside the other client's
    writes."""

    CHUNK = 500

    def __init__(self, seed: int, cid: int, lattice: TypeLattice,
                 workload: str) -> None:
        super().__init__(seed, cid, lattice, workload)
        self.lattice = lattice
        self.chunk = 0
        self.pending: deque[dict] = deque()

    def _next_op(self) -> dict:
        if not self.pending:
            self.chunk += 1
            plan = random_plan(
                self.lattice, self.CHUNK, self.rng.randrange(2**31)
            )
            # random_plan numbers its fresh types per stream; give each
            # client and chunk its own names so the two streams' ATs do
            # not collide.
            prefix = f"T_e{self.cid}_{self.chunk}_"
            for op in plan:
                d = op.to_dict()
                if d["code"] == "AT":
                    d["name"] = prefix + d["name"][len("T_new"):]
                self.pending.append(d)
        return self.pending.popleft()

    def loop(self) -> Loop:
        op = self._next_op()
        yield Request("POST", "/v1/apply", _encode({"op": op}), True, (op,))
        yield self.card()
        yield self.card()


def add_property_to_ddl(ddl: str, type_name: str, line: str) -> str:
    """Insert ``line`` (an ``ne`` statement) into ``type_name``'s block.

    Works on the canonical printer output: a declaration is either
    ``type NAME ...;`` or ``type NAME ... {`` followed by statements.
    """
    match = re.search(
        rf"^type {re.escape(type_name)}(?=[ ;{{:])", ddl, re.MULTILINE
    )
    if match is None:
        raise ValueError(f"type {type_name!r} is not declared")
    end = min(
        i for i in (ddl.find(";", match.end()), ddl.find("{", match.end()))
        if i >= 0
    )
    if ddl[end] == "{":
        return f"{ddl[:end + 1]}\n    {line}{ddl[end + 1:]}"
    return f"{ddl[:end]} {{\n    {line}\n}}{ddl[end + 1:]}"


class GovernedMigrateClient(_Client):
    """Read the schema, then alternately migrate to it with one seeded
    edit (a new leaf type, then a new property on an existing type, in
    turn) or send a two-operation batch; both carry ``expect_generation``
    so a race with the other client is a ``409 plan-interference`` (an
    expected outcome; the next loop re-reads and plans again)."""

    def loop(self) -> Loop:
        self.count += 1
        schema = yield Request("GET", "/v1/schema")
        if schema.status != 200:
            return
        generation = int(schema.headers["X-Schema-Generation"])
        tag = f"g{self.cid}_{self.count:06d}"
        if self.count % 2:
            ddl = schema.body.decode("utf-8")
            if self.count % 4 == 1:
                supers = ", ".join(sorted(self.rng.sample(self.names, 2)))
                ddl += f"\ntype T_{tag} : {supers};\n"
            else:
                ddl = add_property_to_ddl(
                    ddl, self.rng.choice(self.names),
                    f"ne {tag}.p as p{self.rng.randrange(12)};",
                )
            body = {"schema": ddl, "expect_generation": generation}
            yield Request("POST", "/v1/migrate", _encode(body), True)
        else:
            ops = (
                {
                    "code": "AT",
                    "name": f"T_{tag}",
                    "supertypes": sorted(self.rng.sample(self.names, 2)),
                    "properties": [],
                },
                {
                    "code": "MT-AB",
                    "subject": self.rng.choice(self.names),
                    "prop": {
                        "semantics": f"{tag}.q",
                        "name": f"p{self.rng.randrange(12)}",
                        "domain": None,
                    },
                },
            )
            body = {"operations": list(ops), "expect_generation": generation}
            yield Request("POST", "/v1/batch", _encode(body), True, ops)


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``tail`` is the latency percentile reported as ``latency_tail_ms``:
    one with at least ten loops beyond it in a baseline run, and in
    read_cards and ingest one that sits inside a step of the 4 ms
    delayed-ACK timer rather than on the edge between two (p98 of
    read_cards and p95 of ingest flip between steps from run to run).
    ``rejections`` says whether documented schema rejections (404
    unknown-type/property, 409) are expected outcomes of its writes.
    """

    name: str
    n_types: int
    quick_types: int
    lint: str
    tail: int
    rejections: bool
    client: type

    def clients(self, seed: int, lattice: TypeLattice, n: int) -> list:
        return [self.client(seed, cid, lattice, self.name) for cid in range(n)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("read_cards", 10_000, 400, "off", 95, False,
                 ReadCardsClient),
        Workload("ingest", 1_000, 200, "off", 98, False, IngestClient),
        # 3k types, not 10k: at 10k a run holds ~100 writes of
        # 150-800 ms each, and throughput and latency spread by 15-19%
        # from run to run against 2-6% at 5k and 3k (runs interleaved
        # on one host).
        Workload("evolve_large", 3_000, 400, "off", 90, True,
                 EvolveLargeClient),
        # 250 types, not 500: at 500 the writer lock is saturated by
        # ~150 ms lint-gated holds and a 15 s window holds ~95 loops, and
        # run-to-run spread was 16-21% against 10-12% at 250 (runs
        # interleaved on one host).
        Workload("governed_migrate", 250, 120, "error", 90, True,
                 GovernedMigrateClient),
    )
}
