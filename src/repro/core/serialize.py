"""Bit-exact serialization of the paged D-tree (Figure 7 made concrete).

:class:`PagedDTree` models packet *sizes*; this module produces the actual
bytes a broadcast server would transmit and a client decoder that answers
point queries by parsing those bytes alone — nothing from the in-memory
tree leaks into query processing, so a passing round-trip test certifies
that the Figure-7 layout really carries everything Algorithm 2 needs.

Wire format (sizes per Table 2):

* **coordinate pair** — 4 bytes: two 16-bit fixed-point axis values over
  the service area (quantisation step = extent / 65535);
* **bid** — 2 bytes: node id;
* **header** — 2 bytes: bit 15 multi-packet flag, bit 14 partition
  dimension (0 = y, 1 = x), bit 13 bounds-only flag (empty partition),
  bit 12 described-subspace flag (complement-extent extension),
  bits 0-11 coordinate count;
* **pointer** — 4 bytes: bit 31 type (1 = data bucket, 0 = child node);
  for a node, bits 12-30 hold the packet id and bits 0-11 the byte offset
  inside it; for data, bits 0-30 hold the region id;
* **large nodes** add one RMC coordinate pair before the partition and the
  partition starts with the LMC point (§4.4);
* polylines are concatenated; a repeated coordinate pair marks a break
  (a polyline never repeats a vertex, so the marker is unambiguous).
  Break markers and the empty-partition pseudo-coordinate are real bytes,
  so the serializer pages with
  ``PagedDTree(count_polyline_breaks=True)``.

Because axis values are quantised to 16 bits, a query within one
quantisation step of a region boundary may resolve to the neighbouring
region; everywhere else the decoder answers exactly like the in-memory
tree.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.errors import PagingError, QueryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.broadcast.packets import QueryTrace, dedupe_consecutive
from repro.broadcast.params import SystemParameters
from repro.core.dtree import DTree
from repro.core.paging import PagedDTree

#: 16-bit fixed point per axis value.
AXIS_MAX = 0xFFFF

_HEADER_MULTI = 1 << 15
_HEADER_DIM_X = 1 << 14
_HEADER_BOUNDS_ONLY = 1 << 13
_HEADER_DESCRIBED_SECOND = 1 << 12
_COUNT_MASK = (1 << 12) - 1

_PTR_DATA = 1 << 31
_PTR_OFFSET_BITS = 12
_PTR_OFFSET_MASK = (1 << _PTR_OFFSET_BITS) - 1


class AxisCodec:
    """16-bit fixed-point encoding of axis values over the service area."""

    def __init__(self, service_area: Rect) -> None:
        self.area = service_area
        self._x0 = service_area.min_x
        self._y0 = service_area.min_y
        self._xs = max(service_area.width, 1e-12)
        self._ys = max(service_area.height, 1e-12)

    def encode_x(self, x: float) -> int:
        return _clamp16(round((x - self._x0) / self._xs * AXIS_MAX))

    def encode_y(self, y: float) -> int:
        return _clamp16(round((y - self._y0) / self._ys * AXIS_MAX))

    def decode_x(self, raw: int) -> float:
        return self._x0 + raw / AXIS_MAX * self._xs

    def decode_y(self, raw: int) -> float:
        return self._y0 + raw / AXIS_MAX * self._ys

    @property
    def quantisation_step(self) -> float:
        """Largest axis quantisation error in service-area units."""
        return max(self._xs, self._ys) / AXIS_MAX


def _clamp16(value: int) -> int:
    return min(AXIS_MAX, max(0, int(value)))


class SerializedDTree:
    """The broadcast image of a D-tree: real packet bytes + a decoder."""

    def __init__(self, tree: DTree, params: SystemParameters) -> None:
        if params.bid_size != 2 or params.header_size != 2:
            raise PagingError("the wire format requires 2-byte bid and header")
        if params.pointer_size != 4 or params.coordinate_size != 4:
            raise PagingError(
                "the wire format requires 4-byte pointers and coordinates"
            )
        self.tree = tree
        self.params = params
        self.codec = AxisCodec(tree.subdivision.service_area)
        #: The allocator with exact (break-aware) accounting.
        self.layout = PagedDTree(tree, params, count_polyline_breaks=True)
        self.packets: List[bytes] = []
        self._encode()

    # -- encoding -----------------------------------------------------------------

    def _encode(self) -> None:
        capacity = self.params.packet_capacity
        buffers = [bytearray(capacity) for _ in self.layout.packets]
        # Byte offset of each node inside its first packet.  Recompute the
        # packing walk: fragments were allocated in order per packet, so
        # replay allocation order from the layout's packet contents.
        offsets = self._node_offsets()

        for row in self.tree.nodes_breadth_first():
            blob = self._node_bytes(row, offsets)
            packet_ids = self.layout.packets_of_row(row)
            start = offsets[row][1]
            # Write across the node's consecutive packets.
            written = 0
            for i, pid in enumerate(packet_ids):
                begin = start if i == 0 else 0
                room = capacity - begin
                chunk = blob[written : written + room]
                buffers[pid][begin : begin + len(chunk)] = chunk
                written += len(chunk)
            if written != len(blob):
                raise PagingError(
                    f"node {self.tree.node_id[row]}: wrote {written} of "
                    f"{len(blob)} bytes"
                )
        self.packets = [bytes(b) for b in buffers]

    def _node_offsets(self) -> List[Tuple[int, int]]:
        """Per tree row: (first packet id, byte offset in that packet)."""
        capacity = self.params.packet_capacity
        fill: Dict[int, int] = {}
        offsets: List[Tuple[int, int]] = [(0, 0)] * len(self.tree.node_id)
        for row in self.tree.nodes_breadth_first():
            packet_ids = self.layout.packets_of_row(row)
            first = packet_ids[0]
            offset = fill.get(first, 0)
            offsets[row] = (first, offset)
            size = self.layout.node_size(row)
            if len(packet_ids) == 1:
                fill[first] = offset + size
            else:
                # Large node: fills whole packets, remainder in the last.
                remainder = size - (len(packet_ids) - 1) * capacity
                for pid in packet_ids[:-1]:
                    fill[pid] = capacity
                fill[packet_ids[-1]] = remainder
        return offsets

    def _node_bytes(self, row: int, offsets: List[Tuple[int, int]]) -> bytes:
        tree = self.tree
        part = tree.partition[row]
        node_id = tree.node_id[row]
        coords = self._partition_axis_pairs(part)
        header = len(coords) & _COUNT_MASK
        if part.dimension == "x":
            header |= _HEADER_DIM_X
        if part.size == 0:
            header |= _HEADER_BOUNDS_ONLY
        if part.style.described == "second":
            header |= _HEADER_DESCRIBED_SECOND
        size = self.layout.node_size(row)
        is_multi = size > self.params.packet_capacity
        if is_multi:
            header |= _HEADER_MULTI

        out = bytearray()
        out += struct.pack(">H", node_id & 0xFFFF)
        out += struct.pack(">H", header)
        out += struct.pack(">I", self._pointer(tree.left[row], offsets))
        out += struct.pack(">I", self._pointer(tree.right[row], offsets))
        if is_multi:
            # RMC coordinate: the second_bound axis value (other half
            # unused on the wire but part of the coordinate budget).
            if part.dimension == "y":
                rmc = self.codec.encode_x(part.second_bound)
            else:
                rmc = self.codec.encode_y(part.second_bound)
            out += struct.pack(">HH", rmc, 0)
        for ax, ay in coords:
            out += struct.pack(">HH", ax, ay)
        if len(out) != size:
            raise PagingError(
                f"node {node_id}: encoded {len(out)} bytes, sized {size}"
            )
        return bytes(out)

    def _partition_axis_pairs(self, part) -> List[Tuple[int, int]]:
        if part.size == 0:
            # Bounds-only pseudo-coordinate: (first_bound, second_bound).
            if part.dimension == "y":
                return [
                    (
                        self.codec.encode_x(part.first_bound),
                        self.codec.encode_x(part.second_bound),
                    )
                ]
            return [
                (
                    self.codec.encode_y(part.first_bound),
                    self.codec.encode_y(part.second_bound),
                )
            ]
        pairs: List[Tuple[int, int]] = []
        # The partition starts with the LMC point (§4.4): order polylines
        # so the one holding the extreme D1-side coordinate comes first.
        polylines = sorted(part.polylines, key=self._polyline_sort_key(part))
        for i, pl in enumerate(polylines):
            vertices = list(pl.vertices)
            if i > 0:
                # Break marker: repeat the previous encoded pair.
                pairs.append(pairs[-1])
            for v in vertices:
                pairs.append(
                    (self.codec.encode_x(v.x), self.codec.encode_y(v.y))
                )
        return pairs

    @staticmethod
    def _polyline_sort_key(part):
        if part.style.described == "second":
            if part.dimension == "y":
                return lambda pl: -pl.max_x
            return lambda pl: pl.min_y
        if part.dimension == "y":
            return lambda pl: pl.min_x
        return lambda pl: -pl.max_y

    def _pointer(self, code: int, offsets: List[Tuple[int, int]]) -> int:
        if code >= 0:
            pid, offset = offsets[code]
            if offset > _PTR_OFFSET_MASK:
                raise PagingError(f"offset {offset} exceeds pointer field")
            return (pid << _PTR_OFFSET_BITS) | offset
        return _PTR_DATA | (~int(code) & 0x7FFFFFFF)

    # -- decoding client ---------------------------------------------------------

    def trace(self, point: Point) -> QueryTrace:
        """Answer a point query by parsing packet bytes only."""
        accesses: List[int] = []
        pointer = 0  # packet 0, offset 0 = root
        while True:
            pointer, region = self._step(pointer, point, accesses)
            if region is not None:
                return QueryTrace(region, dedupe_consecutive(accesses))

    def _step(
        self, pointer: int, point: Point, accesses: List[int]
    ) -> Tuple[int, Optional[int]]:
        capacity = self.params.packet_capacity
        pid = pointer >> _PTR_OFFSET_BITS
        offset = pointer & _PTR_OFFSET_MASK
        reader = _PacketReader(self.packets, capacity, pid, offset, accesses)

        reader.read(2)  # bid (unused by the client)
        (header,) = struct.unpack(">H", reader.read(2))
        is_multi = bool(header & _HEADER_MULTI)
        dim_x = bool(header & _HEADER_DIM_X)
        bounds_only = bool(header & _HEADER_BOUNDS_ONLY)
        described_second = bool(header & _HEADER_DESCRIBED_SECOND)
        n_coords = header & _COUNT_MASK
        (left_ptr,) = struct.unpack(">I", reader.read(4))
        (right_ptr,) = struct.unpack(">I", reader.read(4))

        axis = point.y if dim_x else point.x

        if bounds_only:
            fb_raw, sb_raw = struct.unpack(">HH", reader.read(4))
            first_bound = (
                self.codec.decode_y(fb_raw) if dim_x else self.codec.decode_x(fb_raw)
            )
            side_first = axis >= first_bound if dim_x else axis <= first_bound
            return self._follow(left_ptr if side_first else right_ptr)

        rmc_value = None
        if is_multi:
            rmc_raw, _ = struct.unpack(">HH", reader.read(4))
            rmc_value = (
                self.codec.decode_y(rmc_raw)
                if dim_x
                else self.codec.decode_x(rmc_raw)
            )

        # Decode the partition (LMC point first).
        pairs = [struct.unpack(">HH", reader.read(4)) for _ in range(n_coords)]
        vertices: List[List[Point]] = [[]]
        previous = None
        for pair in pairs:
            if previous is not None and pair == previous and vertices[-1]:
                vertices.append([])  # break marker
                previous = None
                continue
            x = self.codec.decode_x(pair[0])
            y = self.codec.decode_y(pair[1])
            vertices[-1].append(Point(x, y))
            previous = pair

        all_points = [v for chain in vertices for v in chain]
        if dim_x:
            first_bound = max(p.y for p in all_points)
            second_bound = (
                rmc_value
                if rmc_value is not None
                else min(p.y for p in all_points)
            )
            in_first = point.y >= first_bound
            in_second = point.y <= second_bound
        else:
            first_bound = min(p.x for p in all_points)
            second_bound = (
                rmc_value
                if rmc_value is not None
                else max(p.x for p in all_points)
            )
            in_first = point.x <= first_bound
            in_second = point.x >= second_bound

        if in_first:
            return self._follow(left_ptr)
        if in_second:
            return self._follow(right_ptr)

        crossings = 0
        for chain in vertices:
            for a, b in zip(chain, chain[1:]):
                if dim_x:
                    if (a.x > point.x) != (b.x > point.x):
                        y_at = a.y + (point.x - a.x) / (b.x - a.x) * (b.y - a.y)
                        hit = y_at > point.y if described_second else y_at < point.y
                        if hit:
                            crossings += 1
                else:
                    if (a.y > point.y) != (b.y > point.y):
                        x_at = a.x + (point.y - a.y) / (b.y - a.y) * (b.x - a.x)
                        hit = x_at < point.x if described_second else x_at > point.x
                        if hit:
                            crossings += 1
        odd = crossings % 2 == 1
        side_first = odd != described_second
        return self._follow(left_ptr if side_first else right_ptr)

    @staticmethod
    def _follow(pointer: int) -> Tuple[int, Optional[int]]:
        if pointer & _PTR_DATA:
            return 0, pointer & 0x7FFFFFFF
        return pointer, None

    @property
    def total_bytes(self) -> int:
        return sum(len(p) for p in self.packets)


class _PacketReader:
    """Sequential byte reader over consecutive fixed-size packets,
    recording each packet access."""

    def __init__(
        self,
        packets: List[bytes],
        capacity: int,
        packet_id: int,
        offset: int,
        accesses: List[int],
    ) -> None:
        self.packets = packets
        self.capacity = capacity
        self.packet_id = packet_id
        self.offset = offset
        self.accesses = accesses
        self._touch()

    def _touch(self) -> None:
        if not self.accesses or self.accesses[-1] != self.packet_id:
            self.accesses.append(self.packet_id)

    def read(self, n: int) -> bytes:
        out = bytearray()
        while n > 0:
            if self.packet_id >= len(self.packets):
                raise QueryError("read past the last broadcast packet")
            room = self.capacity - self.offset
            if room == 0:
                self.packet_id += 1
                self.offset = 0
                self._touch()
                continue
            take = min(room, n)
            packet = self.packets[self.packet_id]
            out += packet[self.offset : self.offset + take]
            self.offset += take
            n -= take
        return bytes(out)
