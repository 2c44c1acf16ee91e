"""The query plan: a DAG of m-ops connected by channels.

Following the paper's extension of the classical notion, *one* plan
implements *all* currently active logical queries (§2.1).  The plan tracks:

- the streams (sources and derived), each carried by exactly one channel,
- the m-ops, each implementing a set of operator instances,
- which streams are query outputs (sinks), for per-query accounting.

Plans start *naive*: :meth:`QueryPlan.add_operator` wraps every operator in a
single-instance :class:`~repro.mops.naive.NaiveMOp` on singleton channels.
The optimizer then rewrites the plan by replacing m-op sets with target m-ops
(:meth:`replace_mops`) and by encoding stream sets into channels
(:meth:`channelize`) — the two primitive mutations every m-rule action is
built from.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Optional, Sequence

from repro.errors import PlanError
from repro.core.mop import MOp, OpInstance
from repro.streams.channel import Channel
from repro.streams.schema import Schema
from repro.streams.stream import StreamDef


class QueryPlan:
    """Plan graph and wiring authority.

    The plan is the single source of truth for which channel carries each
    stream; executors read the wiring when they are built, so rewrites must
    happen before execution starts.
    """

    def __init__(self):
        self.sources: list[StreamDef] = []
        self.mops: list[MOp] = []
        self._streams: dict[int, StreamDef] = {}
        self._channel_by_stream: dict[int, Channel] = {}
        #: stream_id -> list of (mop, instance, input_index) consuming it.
        self._consumers: dict[int, list[tuple[MOp, OpInstance, int]]] = defaultdict(list)
        #: stream_id -> the OpInstance producing it (None for sources).
        self._producer_instance: dict[int, OpInstance] = {}
        #: stream_id -> query ids, for streams that are query outputs.  After
        #: common-subexpression elimination several queries may share one
        #: output stream, hence the list.
        self._sinks: dict[int, list] = {}

    # -- construction -----------------------------------------------------------

    def add_source(
        self,
        name: str,
        schema: Schema,
        sharable_label: Optional[str] = None,
    ) -> StreamDef:
        """Register a source stream (on its own singleton channel)."""
        stream = StreamDef(name, schema, sharable_label=sharable_label)
        self.sources.append(stream)
        self._register_stream(stream)
        return stream

    def adopt_source(self, stream: StreamDef, channel: Optional[Channel] = None) -> StreamDef:
        """Register an *existing* source stream (and its channel) in this plan.

        Several plans may adopt the same stream/channel objects — that is the
        sharding contract: shard sub-plans read the same source channels as
        the plan they were partitioned from, so wiring signatures (and hence
        executor state) stay valid when a component moves between plans.
        The adopting plan must not re-channelize an adopted source; channels
        are owned by whoever created them.
        """
        if stream.stream_id in self._streams:
            raise PlanError(f"{stream!r} is already part of this plan")
        if channel is not None and not channel.contains(stream):
            raise PlanError(
                f"channel {channel.name!r} does not encode {stream!r}"
            )
        self.sources.append(stream)
        self._streams[stream.stream_id] = stream
        self._channel_by_stream[stream.stream_id] = (
            channel if channel is not None else Channel.singleton(stream)
        )
        return stream

    def add_operator(
        self,
        operator,
        inputs: Sequence[StreamDef],
        query_id=None,
        name: Optional[str] = None,
    ) -> StreamDef:
        """Append an operator on existing streams; returns its output stream.

        The operator is wrapped in a single-instance naive m-op — the
        unoptimized starting point every plan begins from.
        """
        from repro.mops.naive import NaiveMOp  # deferred: mops build on this module

        for stream in inputs:
            if stream.stream_id not in self._streams:
                raise PlanError(f"{stream!r} is not part of this plan")
        schema = operator.output_schema([s.schema for s in inputs])
        output = StreamDef(name or self._derived_name(operator, inputs), schema)
        instance = OpInstance(operator, inputs, output, query_id=query_id)
        mop = NaiveMOp([instance])
        self._register_stream(output)
        self._producer_instance[output.stream_id] = instance
        self._attach_mop(mop)
        return output

    def mark_output(self, stream: StreamDef, query_id) -> None:
        """Declare ``stream`` a query output (a plan sink)."""
        if stream.stream_id not in self._streams:
            raise PlanError(f"{stream!r} is not part of this plan")
        self._sinks.setdefault(stream.stream_id, []).append(query_id)

    def unmark_output(self, query_id) -> int:
        """Remove every sink registration of ``query_id``; returns how many.

        After common-subexpression elimination several queries may share one
        sink stream, so only the query's membership is dropped — the stream
        stays a sink while other queries still read it.  Streams left with no
        registrations stop being sinks (and become eligible for
        :meth:`prune_unreachable`).
        """
        removed = 0
        for stream_id in list(self._sinks):
            query_ids = self._sinks[stream_id]
            remaining = [qid for qid in query_ids if qid != query_id]
            removed += len(query_ids) - len(remaining)
            if remaining:
                self._sinks[stream_id] = remaining
            else:
                del self._sinks[stream_id]
        return removed

    def live_instances(self) -> set[int]:
        """``id()`` of every instance transitively feeding a sink."""
        needed: set[int] = set(self._sinks)
        queue = list(needed)
        live: set[int] = set()
        while queue:
            stream_id = queue.pop()
            instance = self._producer_instance.get(stream_id)
            if instance is None or id(instance) in live:
                continue
            live.add(id(instance))
            for stream in instance.inputs:
                if stream.stream_id not in needed:
                    needed.add(stream.stream_id)
                    queue.append(stream.stream_id)
        return live

    def prune_unreachable(self) -> list[MOp]:
        """Garbage-collect m-ops no longer reachable from any sink.

        An m-op is *dead* when none of its instances transitively feed a
        sink; a dead m-op is removed once nothing consumes its output
        streams, which cascades bottom-up as downstream dead m-ops go first.
        Partially-dead m-ops (some instances live — e.g. a merged m-op whose
        member query departed) are kept whole: splitting a target m-op is
        not a paper operation, and the surviving members still need it.
        Removed m-ops' output streams (and their channels) leave the plan.
        """
        live = self.live_instances()
        dead = [
            mop
            for mop in self.mops
            if not any(id(instance) in live for instance in mop.instances)
        ]
        removed: list[MOp] = []
        progressed = True
        while progressed:
            progressed = False
            for mop in list(dead):
                if any(
                    entry[0] is not mop
                    for instance in mop.instances
                    for entry in self._consumers.get(instance.output.stream_id, ())
                ):
                    continue  # still feeding another (dead) m-op; next round
                self._detach_mop(mop)
                for stream in mop.output_streams:
                    self._streams.pop(stream.stream_id, None)
                    self._channel_by_stream.pop(stream.stream_id, None)
                    self._producer_instance.pop(stream.stream_id, None)
                    self._consumers.pop(stream.stream_id, None)
                dead.remove(mop)
                removed.append(mop)
                progressed = True
        self.validate()
        return removed

    # -- component transfer (sharding support) ---------------------------------------

    def view_component(self, mops: Sequence[MOp]) -> dict:
        """The transfer dict :meth:`release_component` would return, built
        as a **view** of the live plan — nothing detached.

        Same closed-set validation, same shape (one construction path, so a
        released transfer and a checkpoint snapshot can never disagree
        about what a component carries).  The returned dict references live
        plan objects; it is only safe to serialize immediately (pickling
        copies it) or to hand to :meth:`release_component`'s detach step.
        """
        releasing = {id(mop) for mop in mops}
        for mop in mops:
            if mop not in self.mops:
                raise PlanError(f"{mop!r} is not part of this plan")
        output_ids = {
            stream.stream_id for mop in mops for stream in mop.output_streams
        }
        for stream_id in output_ids:
            for consumer, __, __index in self._consumers.get(stream_id, ()):
                if id(consumer) not in releasing:
                    raise PlanError(
                        "cannot release component: stream "
                        f"{self._streams[stream_id].name!r} is consumed by "
                        f"{consumer!r} outside the component"
                    )
        streams: list[StreamDef] = []
        channels: dict[int, Channel] = {}
        sinks: dict[int, list] = {}
        for stream_id in output_ids:
            stream = self._streams[stream_id]
            streams.append(stream)
            channels[stream_id] = self._channel_by_stream[stream_id]
            registered = self._sinks.get(stream_id)
            if registered:
                sinks[stream_id] = list(registered)
        return {
            "mops": list(mops),
            "streams": streams,
            "channels": channels,
            "sinks": sinks,
        }

    def release_component(self, mops: Sequence[MOp]) -> dict:
        """Detach a *closed* set of m-ops (and their derived streams, channels
        and sink registrations) from this plan.

        The set must be consumption-closed: every consumer of a released
        m-op's output stream must itself be released — otherwise the plan
        would be left with dangling wiring.  Source streams are never
        released; they stay behind (shared infrastructure).  Returns a
        transfer dict consumable by :meth:`adopt_component` on another plan
        whose source streams include (by identity) every source the
        component reads.
        """
        transfer = self.view_component(mops)
        for mop in transfer["mops"]:
            self._detach_mop(mop)
        for stream in transfer["streams"]:
            stream_id = stream.stream_id
            self._streams.pop(stream_id)
            self._channel_by_stream.pop(stream_id)
            self._producer_instance.pop(stream_id, None)
            self._consumers.pop(stream_id, None)
            self._sinks.pop(stream_id, None)
        self.validate()
        return transfer

    def adopt_component(self, transfer: dict) -> None:
        """Attach a component released from another plan.

        Every input stream the component's m-ops read must already be part of
        this plan — either one of its (shared) source streams or a stream
        carried inside the transfer.  Streams keep their channels, instances
        keep their identity, so wiring signatures are unchanged and the
        engine migration can reuse the component's executors, state intact.

        Identity is by ``stream_id``: a transfer that crossed a process
        boundary references unpickled *copies* of the shared source streams.
        Those references are rebound to this plan's canonical objects, so
        repeated rebalances never accumulate stale copies and downstream
        code may keep relying on object identity for plan-resident streams.
        """
        streams: list[StreamDef] = transfer["streams"]
        channels: dict[int, Channel] = transfer["channels"]
        carried = {stream.stream_id for stream in streams}
        for mop in transfer["mops"]:
            for instance in mop.instances:
                for stream in instance.inputs:
                    if (
                        stream.stream_id not in self._streams
                        and stream.stream_id not in carried
                    ):
                        raise PlanError(
                            f"cannot adopt component: {mop!r} reads "
                            f"{stream!r}, which this plan does not carry"
                        )
        for mop in transfer["mops"]:
            for instance in mop.instances:
                if any(
                    self._streams.get(stream.stream_id) is not None
                    and self._streams[stream.stream_id] is not stream
                    for stream in instance.inputs
                ):
                    instance.inputs = tuple(
                        self._streams.get(stream.stream_id, stream)
                        for stream in instance.inputs
                    )
        for stream in streams:
            if stream.stream_id in self._streams:
                raise PlanError(f"{stream!r} is already part of this plan")
            self._streams[stream.stream_id] = stream
            self._channel_by_stream[stream.stream_id] = channels[stream.stream_id]
        for mop in transfer["mops"]:
            for instance in mop.instances:
                self._producer_instance[instance.output.stream_id] = instance
            self._attach_mop(mop)
        for stream_id, query_ids in transfer["sinks"].items():
            self._sinks.setdefault(stream_id, []).extend(query_ids)
        self.validate()

    def _derived_name(self, operator, inputs: Sequence[StreamDef]) -> str:
        base = "+".join(s.name for s in inputs)
        return f"{operator.symbol}({base})"

    def _register_stream(self, stream: StreamDef) -> None:
        self._streams[stream.stream_id] = stream
        self._channel_by_stream[stream.stream_id] = Channel.singleton(stream)

    def _attach_mop(self, mop: MOp) -> None:
        self.mops.append(mop)
        for instance in mop.instances:
            for index, stream in enumerate(instance.inputs):
                self._consumers[stream.stream_id].append((mop, instance, index))

    def _detach_mop(self, mop: MOp) -> None:
        self.mops.remove(mop)
        for instance in mop.instances:
            for index, stream in enumerate(instance.inputs):
                self._consumers[stream.stream_id] = [
                    entry
                    for entry in self._consumers[stream.stream_id]
                    if entry[1] is not instance
                ]

    # -- wiring queries ------------------------------------------------------------

    def channel_of(self, stream: StreamDef) -> Channel:
        try:
            return self._channel_by_stream[stream.stream_id]
        except KeyError:
            raise PlanError(f"{stream!r} is not part of this plan") from None

    def streams(self) -> list[StreamDef]:
        return list(self._streams.values())

    def channels(self) -> list[Channel]:
        """Distinct channels currently in the plan."""
        seen: set[int] = set()
        result: list[Channel] = []
        for channel in self._channel_by_stream.values():
            if channel.channel_id not in seen:
                seen.add(channel.channel_id)
                result.append(channel)
        return result

    def channel_components(self) -> dict[int, int]:
        """channel_id -> representative channel id of its connected component.

        Two channels are connected when one m-op touches both (as inputs,
        outputs or one of each) or one query has sinks on both.  No m-op,
        no operator state and no query's output order spans two components,
        so they can be drained one after another with every query's outputs
        unchanged.
        """
        by_stream = self._channel_by_stream
        parent = {channel.channel_id: channel.channel_id for channel in self.channels()}

        def find(channel_id: int) -> int:
            while parent[channel_id] != channel_id:
                parent[channel_id] = parent[parent[channel_id]]
                channel_id = parent[channel_id]
            return channel_id

        def union(channel_ids: list[int]) -> None:
            root = find(channel_ids[0])
            for channel_id in channel_ids[1:]:
                other = find(channel_id)
                if other != root:
                    parent[other] = root

        for mop in self.mops:
            streams = (*mop.input_streams, *mop.output_streams)
            union([by_stream[stream.stream_id].channel_id for stream in streams])
        sink_channels: dict = defaultdict(list)
        for stream_id, query_ids in self._sinks.items():
            for query_id in query_ids:
                sink_channels[query_id].append(by_stream[stream_id].channel_id)
        for channel_ids in sink_channels.values():
            union(channel_ids)
        return {channel_id: find(channel_id) for channel_id in parent}

    def consumers_of(self, stream: StreamDef) -> list[tuple[MOp, OpInstance, int]]:
        return list(self._consumers.get(stream.stream_id, ()))

    def producer_instance_of(self, stream: StreamDef) -> Optional[OpInstance]:
        return self._producer_instance.get(stream.stream_id)

    def producer_mop_of(self, stream: StreamDef) -> Optional[MOp]:
        instance = self._producer_instance.get(stream.stream_id)
        return instance.owner if instance is not None else None

    @property
    def sinks(self) -> dict[int, list]:
        """stream_id -> query ids for all declared query outputs."""
        return {stream_id: list(qs) for stream_id, qs in self._sinks.items()}

    def sink_streams(self) -> list[tuple[StreamDef, list]]:
        return [
            (self._streams[stream_id], list(query_ids))
            for stream_id, query_ids in self._sinks.items()
        ]

    def instances(self) -> list[OpInstance]:
        """All operator instances across all m-ops."""
        result: list[OpInstance] = []
        for mop in self.mops:
            result.extend(mop.instances)
        return result

    # -- rewrite primitives (used by m-rule actions) ---------------------------------

    def replace_mops(self, old_mops: Sequence[MOp], new_mop: MOp) -> None:
        """Replace a set of m-ops with a target m-op implementing their union.

        The target must implement exactly the union of the old m-ops'
        instances (the m-rule action contract, §2.3): "we simply replace all
        edges that previously connected other operators with the to-be merged
        operators by edges to the corresponding input and output streams of
        the target m-op".  Channels are untouched — wiring is per-stream.
        """
        old_instances = {
            id(instance) for mop in old_mops for instance in mop.instances
        }
        new_instances = {id(instance) for instance in new_mop.instances}
        if old_instances != new_instances:
            raise PlanError(
                "target m-op must implement exactly the union of the replaced "
                "m-ops' instances"
            )
        for mop in old_mops:
            if mop not in self.mops:
                raise PlanError(f"{mop!r} is not part of this plan")
        for mop in old_mops:
            self._detach_mop(mop)
        self._attach_mop(new_mop)

    def eliminate_duplicate(
        self, duplicate: OpInstance, representative: OpInstance
    ) -> None:
        """Common-subexpression elimination: drop ``duplicate``, rewiring its
        consumers (and sink registrations) to ``representative``'s output.

        Both instances must have the same operator definition and identical
        input streams (the classical CSE condition, Table 1 row s;), and the
        duplicate must be the only instance of its m-op — CSE runs before the
        merging rules, when every instance still sits in its own naive m-op.
        """
        if duplicate.operator.definition() != representative.operator.definition():
            raise PlanError("CSE requires identical operator definitions")
        if [s.stream_id for s in duplicate.inputs] != [
            s.stream_id for s in representative.inputs
        ]:
            raise PlanError("CSE requires identical input streams")
        owner = duplicate.owner
        if owner is None or len(owner.instances) != 1:
            raise PlanError("CSE can only eliminate single-instance m-ops")
        old_stream = duplicate.output
        new_stream = representative.output
        if not self.channel_of(old_stream).is_singleton:
            raise PlanError("cannot eliminate a stream already in a channel")
        # Rewire consumers of the duplicate's output.
        for __, instance, index in list(self._consumers.get(old_stream.stream_id, ())):
            self._rewire_input(instance, index, new_stream)
        # Move sink registrations over.
        moved = self._sinks.pop(old_stream.stream_id, None)
        if moved:
            self._sinks.setdefault(new_stream.stream_id, []).extend(moved)
        # Drop the m-op and the now-orphaned stream.
        self._detach_mop(owner)
        del self._streams[old_stream.stream_id]
        del self._channel_by_stream[old_stream.stream_id]
        self._producer_instance.pop(old_stream.stream_id, None)
        self._consumers.pop(old_stream.stream_id, None)

    def _rewire_input(self, instance: OpInstance, index: int, new_stream: StreamDef) -> None:
        old_stream = instance.inputs[index]
        entries = self._consumers.get(old_stream.stream_id, [])
        self._consumers[old_stream.stream_id] = [
            entry
            for entry in entries
            if not (entry[1] is instance and entry[2] == index)
        ]
        inputs = list(instance.inputs)
        inputs[index] = new_stream
        instance.inputs = tuple(inputs)
        self._consumers[new_stream.stream_id].append(
            (instance.owner, instance, index)
        )

    def channelize(self, streams: Sequence[StreamDef], name: Optional[str] = None) -> Channel:
        """Encode a set of streams into one channel (paper §3.2 criteria (a)–(b)
        are the caller's responsibility; this enforces the structural rules).

        Requirements checked here:

        - every stream is currently on a singleton channel (re-channeling a
          stream out of a multi-stream channel is not a paper operation),
        - all streams have the same producer m-op, or are all source streams
          sharing a sharable label (synchronized external feeds).
        """
        if len(streams) < 2:
            raise PlanError("channelize needs at least two streams")
        for stream in streams:
            if stream.stream_id not in self._streams:
                raise PlanError(f"{stream!r} is not part of this plan")
            if not self.channel_of(stream).is_singleton:
                raise PlanError(
                    f"{stream!r} is already encoded in a multi-stream channel"
                )
        producers = {id(self.producer_mop_of(stream)) for stream in streams}
        if len(producers) != 1:
            raise PlanError(
                "streams must be produced by the same m-op to share a channel"
            )
        if self.producer_mop_of(streams[0]) is None:
            labels = {stream.sharable_label for stream in streams}
            if len(labels) != 1 or None in labels:
                raise PlanError(
                    "source streams must share a sharable label to be encoded "
                    "into one channel"
                )
        channel = Channel(list(streams), name=name)
        for stream in streams:
            self._channel_by_stream[stream.stream_id] = channel
        return channel

    # -- integrity ----------------------------------------------------------------

    def validate(self) -> None:
        """Check plan invariants; raises :class:`PlanError` on violation."""
        for mop in self.mops:
            for instance in mop.instances:
                if instance.owner is not mop:
                    raise PlanError(f"{instance!r} owner pointer is stale")
                for stream in instance.inputs:
                    if stream.stream_id not in self._streams:
                        raise PlanError(f"{instance!r} reads unknown {stream!r}")
                if instance.output.stream_id not in self._streams:
                    raise PlanError(f"{instance!r} writes unknown stream")
        for stream_id, entries in self._consumers.items():
            for mop, instance, index in entries:
                if mop not in self.mops:
                    raise PlanError("consumer index references removed m-op")
                if instance.inputs[index].stream_id != stream_id:
                    raise PlanError("consumer index entry is inconsistent")

    def describe(self) -> str:
        """Multi-line plan rendering for debugging and examples."""
        lines = [f"QueryPlan: {len(self.mops)} m-ops, {len(self._streams)} streams"]
        for mop in self.mops:
            inputs = ", ".join(
                f"{s.name}@{self.channel_of(s).name}" for s in mop.input_streams
            )
            outputs = ", ".join(
                f"{s.name}@{self.channel_of(s).name}" for s in mop.output_streams
            )
            lines.append(f"  {mop.describe()}: [{inputs}] -> [{outputs}]")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz rendering of the plan: m-ops as boxes, channels as edges.

        Channels with capacity > 1 are drawn as dashed edges labeled with
        their capacity — the paper's visual convention (dashed arrows denote
        channels, Fig. 1(c) / 6(c)).
        """
        lines = [
            "digraph rumor_plan {",
            "  rankdir=BT;",
            '  node [shape=box, fontname="Helvetica"];',
        ]
        for source in self.sources:
            lines.append(
                f'  src_{source.stream_id} [label="{source.name}", shape=ellipse];'
            )
        for mop in self.mops:
            label = mop.describe().replace('"', "'")
            lines.append(f'  mop_{mop.mop_id} [label="{label}"];')
        sink_ids = set(self._sinks)

        def node_of(stream: StreamDef) -> str:
            producer = self.producer_mop_of(stream)
            if producer is None:
                return f"src_{stream.stream_id}"
            return f"mop_{producer.mop_id}"

        drawn: set[tuple[str, str, int]] = set()
        for mop in self.mops:
            for stream in mop.input_streams:
                channel = self.channel_of(stream)
                edge = (node_of(stream), f"mop_{mop.mop_id}", channel.channel_id)
                if edge in drawn:
                    continue
                drawn.add(edge)
                style = "dashed" if not channel.is_singleton else "solid"
                label = (
                    f"{channel.name} (cap {channel.capacity})"
                    if not channel.is_singleton
                    else stream.name
                )
                label = label.replace('"', "'")
                lines.append(
                    f'  {edge[0]} -> {edge[1]} [style={style}, label="{label}"];'
                )
        for stream_id, query_ids in self._sinks.items():
            stream = self._streams[stream_id]
            sink_node = f"sink_{stream_id}"
            label = ",".join(str(q) for q in query_ids).replace('"', "'")
            lines.append(
                f'  {sink_node} [label="{label}", shape=plaintext];'
            )
            lines.append(f"  {node_of(stream)} -> {sink_node};")
        lines.append("}")
        return "\n".join(lines)
