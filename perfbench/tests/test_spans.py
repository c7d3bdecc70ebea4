"""Span nesting and self-time arithmetic."""

from __future__ import annotations

import asyncio
import types

import pytest

from perfbench.spans import Recorder, Span, self_times, totals


def _span(sid: int, parent: int | None, start: float, end: float, name: str = "s") -> Span:
    return Span(sid, parent, name, start, end)


def test_self_time_subtracts_union_of_overlapping_children() -> None:
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),  # overlaps span 2: union is [1, 5]
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(6.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)


def test_children_are_clipped_to_the_parent() -> None:
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 8.0, 12.0)]
    assert self_times(spans)[1] == pytest.approx(8.0)


def test_grandchildren_only_reduce_their_own_parent() -> None:
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 2.0, 8.0, "mid"),
        _span(3, 2, 3.0, 5.0, "leaf"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 4.0, 2: 4.0, 3: 2.0})
    # Self times along one chain add up to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)
    assert totals(spans, self_only=True) == pytest.approx(
        {"root": 4.0, "mid": 4.0, "leaf": 2.0}
    )
    assert totals(spans, self_only=False)["mid"] == pytest.approx(6.0)


def test_missing_parent_makes_a_root() -> None:
    assert self_times([_span(5, 99, 1.0, 2.0)]) == {5: pytest.approx(1.0)}


def test_concurrent_tasks_keep_their_own_parents() -> None:
    rec = Recorder()

    async def request(tag: str) -> None:
        with rec.span("outer", tag=tag):
            await asyncio.sleep(0.01)
            with rec.span("inner", tag=tag):
                await asyncio.sleep(0.01)

    async def both() -> None:
        await asyncio.gather(request("a"), request("b"))

    asyncio.run(both())
    by_id = {s.sid: s for s in rec.spans}
    inner = [s for s in rec.spans if s.name == "inner"]
    assert len(inner) == 2
    for s in inner:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.attrs["tag"] == s.attrs["tag"]


def test_patch_wraps_sync_and_async_callables() -> None:
    rec = Recorder()

    async def fetch(x: int) -> int:
        return x + 1

    owner = types.SimpleNamespace(square=lambda x: x * x, fetch=fetch)
    rec.patch(owner, "square", "sq")
    rec.patch(owner, "fetch", "fe")
    assert owner.square(3) == 9
    assert asyncio.run(owner.fetch(1)) == 2
    assert [s.name for s in rec.spans] == ["sq", "fe"]
