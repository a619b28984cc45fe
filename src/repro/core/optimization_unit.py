"""Dynamic generation of optimization units (paper §4.1).

An optimization unit brings together a set of related decisions that affect
each other but are independent of decisions made at other units: it consists
of a set of concurrently runnable *producer* jobs plus their direct
*consumer* jobs.  Units are generated dynamically while traversing the
workflow graph in topological order, because transformations applied inside a
unit can change the graph (Figure 9: after J3 and J4 are packed into J4', the
next unit is built around J4').

The generator below maintains the set of job names that have already served
as producers ("handled").  At each step the next unit's producers are the
jobs all of whose upstream jobs are handled; a job created by merging a
producer with its consumer is *not* handled, so it becomes a producer of a
later unit — exactly the dynamic behaviour of Figure 9.

Every step reads one table,
:meth:`Workflow.job_adjacency <repro.workflow.graph.Workflow.job_adjacency>`
(the topological order plus each job's upstream and downstream job names),
which lives on the workflow's topology index: it survives config-only
rebinds and is rebuilt in one O(jobs + edges) pass after a transformation
moves an edge, so a unit whose rewrite kept the graph's edges — every
configuration-only unit, and every replayed decision that merged nothing —
finds the table built.
:meth:`OptimizationUnitGenerator.next_unit` scans the order against the
handled set, :meth:`~OptimizationUnitGenerator.independent_subunits` answers
a one-producer unit whose consumers all read that producer without a
dataset walk, and :meth:`~OptimizationUnitGenerator.mark_handled` adds the
unit's producers and prunes the handled set only when one of its names has
left the plan (a producer merged away, or a handled job replaced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.plan import Plan


@dataclass(frozen=True)
class OptimizationUnit:
    """One optimization unit: producer jobs and their direct consumers."""

    producers: Tuple[str, ...]
    consumers: Tuple[str, ...]

    @property
    def jobs(self) -> Tuple[str, ...]:
        """All job names in the unit (producers first, then consumers)."""
        seen = set()
        ordered: List[str] = []
        for name in self.producers + self.consumers:
            if name not in seen:
                seen.add(name)
                ordered.append(name)
        return tuple(ordered)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"U(producers={list(self.producers)}, consumers={list(self.consumers)})"


class OptimizationUnitGenerator:
    """Generates optimization units dynamically as the plan evolves.

    Usage::

        generator = OptimizationUnitGenerator()
        unit = generator.next_unit(plan)
        while unit is not None:
            plan = optimize_unit_somehow(plan, unit)
            generator.mark_handled(plan, unit)
            unit = generator.next_unit(plan)
    """

    def __init__(self) -> None:
        self._handled: Set[str] = set()

    @property
    def handled(self) -> Set[str]:
        """Names of jobs that have already served as unit producers."""
        return set(self._handled)

    def next_unit(self, plan: Plan) -> "OptimizationUnit | None":
        """The next optimization unit of ``plan``, or ``None`` when done."""
        adjacency = plan.workflow.job_adjacency()
        handled = self._handled
        upstream = adjacency.upstream
        producers: List[str] = []
        for name in adjacency.order:
            if name not in handled and handled.issuperset(upstream[name]):
                producers.append(name)
        if not producers:
            return None
        downstream = adjacency.downstream
        taken = set(producers)
        consumers: List[str] = []
        for producer in producers:
            for consumer in downstream[producer]:
                if consumer not in taken:
                    taken.add(consumer)
                    consumers.append(consumer)
        return OptimizationUnit(producers=tuple(producers), consumers=tuple(consumers))

    def independent_subunits(self, plan: Plan, unit: OptimizationUnit) -> List[OptimizationUnit]:
        """Split a unit into sub-units that share no workflow vertices.

        Two jobs of the unit belong to the same sub-unit when they touch a
        common dataset vertex (one reads what the other writes, or they read
        the same input).  Every transformation's applications span jobs
        connected through datasets — vertical packing follows produce/consume
        edges, horizontal packing requires a shared input — so the candidate
        subplans of different sub-units rewrite disjoint parts of the
        workflow graph and can be enumerated, costed, and chosen
        independently; the search enumerates each on its own and composes
        the chosen rewrites afterwards (see ``docs/search.md``).

        Sub-units are returned in a deterministic order (by the position of
        each sub-unit's first job in :attr:`OptimizationUnit.jobs`), which
        the composition step relies on for placement-independent results.

        A unit of one producer whose consumers all read its output is one
        group by construction and comes back as is, with no dataset walk; so
        does any unit whose walk finds one group.
        """
        workflow = plan.workflow
        if len(unit.producers) == 1:
            downstream = workflow.job_adjacency().downstream.get(unit.producers[0])
            if downstream is not None and set(downstream).issuperset(unit.consumers):
                return [unit]
        jobs = unit.jobs
        parent: Dict[str, str] = {name: name for name in jobs}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        touched: Dict[str, str] = {}
        for name in jobs:
            job = workflow.job(name).job
            for dataset in job.input_datasets + job.output_datasets:
                if dataset in touched:
                    ra, rb = find(touched[dataset]), find(name)
                    if ra != rb:
                        parent[rb] = ra
                else:
                    touched[dataset] = name

        # Keyed in order of each group's first job, the order returned.
        groups: Dict[str, List[str]] = {}
        for name in jobs:
            groups.setdefault(find(name), []).append(name)
        if len(groups) == 1 and unit.producers:
            return [unit]

        producer_set = set(unit.producers)
        subunits: List[OptimizationUnit] = []
        for members in groups.values():
            member_set = set(members)
            producers = tuple(n for n in unit.producers if n in member_set)
            consumers = tuple(n for n in unit.consumers if n in member_set)
            if not producers:
                # A consumer group with no producer cannot arise: every
                # consumer shares its input dataset with a unit producer.
                producers = tuple(n for n in members if n not in producer_set)
            subunits.append(OptimizationUnit(producers=producers, consumers=consumers))
        return subunits

    def mark_handled(self, plan: Plan, unit: OptimizationUnit) -> None:
        """Record which of the unit's producers still exist and are now handled.

        Producers that were merged away (their name no longer exists in the
        plan) are dropped; merged jobs keep their new names un-handled so they
        become producers of a later unit.
        """
        jobs = plan.workflow.job_adjacency().upstream  # one entry per job
        handled = self._handled
        handled.update(unit.producers)
        if not jobs.keys() >= handled:
            # A producer or a handled job was merged or replaced away.
            handled.intersection_update(jobs)
