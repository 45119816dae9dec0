"""Metamorphic relations: a capture rewritten in a way the method must not
notice gives outputs that follow from the original's.

Each relation runs the CLI in-process on one small synth market and on its
rewrite, and compares the outputs byte for byte.
"""

import importlib
import io
import json
from dataclasses import fields

import numpy as np
import pytest

from execlab.capture import VenueFrames, read_capture, resample, write_capture
from execlab.capture.book import LocalBook, apply_delta, apply_snapshot, merge_ticker
from execlab.capture.records import (
    KIND_BOOK_DELTA,
    KIND_BOOK_SNAPSHOT,
    KIND_TICKER,
    GRID_NS,
    BookPayload,
    TickerPayload,
    TradePayload,
)
from execlab.cli import main
from execlab.errors import CrossedTicker
from execlab.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    """A 10 s synth capture and the frames CSV `capture resample` writes for it."""
    root = tmp_path_factory.mktemp("metamorphic")
    capture = root / "market.ndjson"
    generate(SynthConfig(seed=21), 10.0, capture)
    assert main(["capture", "resample", str(capture), str(root / "frames.csv")]) == 0
    return capture, (root / "frames.csv").read_bytes()


def book_copy(book: LocalBook) -> LocalBook:
    return LocalBook(bids=dict(book.bids), asks=dict(book.asks))


def snapshots_as_deltas(records) -> tuple[list, int]:
    """The records with every snapshot after its venue's first replaced by the
    book_delta that turns the venue's book into the snapshot's: the levels the
    snapshot drops at qty 0, then the snapshot's levels.  Returns the records
    and the number of snapshots replaced."""
    books: dict[str, LocalBook] = {}
    snapshotted: set[str] = set()  # venues whose first snapshot has passed
    out, rewritten = [], 0
    for rec in records:
        book = books.get(rec.venue)
        if rec.kind == KIND_BOOK_SNAPSHOT and rec.venue in snapshotted:
            after = apply_snapshot(book_copy(book), rec.payload)
            delta = BookPayload(
                bids=tuple((p, 0.0) for p in book.bids if p not in after.bids) + tuple(after.bids.items()),
                asks=tuple((p, 0.0) for p in book.asks if p not in after.asks) + tuple(after.asks.items()),
            )
            rec = rec._replace(kind=KIND_BOOK_DELTA, payload=delta)
            replayed = apply_delta(book_copy(book), delta)
            assert (replayed.bids, replayed.asks) == (after.bids, after.asks)
            rewritten += 1
        if rec.kind in (KIND_BOOK_SNAPSHOT, KIND_BOOK_DELTA, KIND_TICKER):
            book = books.setdefault(rec.venue, LocalBook())
            if rec.kind == KIND_BOOK_SNAPSHOT:
                apply_snapshot(book, rec.payload)
                snapshotted.add(rec.venue)
            elif rec.kind == KIND_BOOK_DELTA:
                apply_delta(book, rec.payload)
            else:
                try:
                    merge_ticker(book, rec.payload)
                except CrossedTicker:
                    pass  # resample leaves the book unchanged too
        out.append(rec)
    return out, rewritten


def test_snapshots_as_deltas_give_the_same_frames(market, tmp_path, monkeypatch):
    capture, want_csv = market
    records, rewritten = snapshots_as_deltas(read_capture(capture))
    deltas = tmp_path / "deltas.ndjson"
    write_capture(records, deltas)
    assert rewritten > 0 and sum(r.kind == KIND_BOOK_DELTA for r in read_capture(deltas)) == rewritten

    applied = []
    resample_module = importlib.import_module("execlab.capture.resample")  # the package re-exports its function
    real = resample_module.apply_delta

    def counted(book, payload):
        applied.append(payload)
        return real(book, payload)

    monkeypatch.setattr(resample_module, "apply_delta", counted)
    assert main(["capture", "resample", str(deltas), str(tmp_path / "frames.csv")]) == 0
    assert len(applied) == rewritten
    assert (tmp_path / "frames.csv").read_bytes() == want_csv
    got, want = resample(read_capture(deltas)), resample(read_capture(capture))
    assert got.grid_ts.tobytes() == want.grid_ts.tobytes() and list(got.venues) == list(want.venues)
    for venue, vf in want.venues.items():
        for f in fields(VenueFrames):
            assert getattr(vf, f.name).tobytes() == getattr(got.venues[venue], f.name).tobytes(), (venue, f.name)


# -- every quantity scaled by a power of two --------------------------------------

# A run short enough to repeat for each transformed capture: two updates per
# scope, a few episodes.
EXPERIMENT = {
    "version": 1,
    "problem": {"horizon_s": 2.0, "n_decisions": 5},
    "ppo": {"rollout_steps": 64, "minibatch_size": 32, "update_epochs": 1},
    "signals": {"target_venue": "v1", "horizons_ms": [100, 500], "window_ms": 2000, "bin_horizon_ms": 500},
    "train": {"updates": 2, "seed": 5},
    "evaluate": {"episodes": 10, "seed": 6, "heatmap_episodes": 3, "trace_episodes": 1},
}


def experiment_outputs(capture, out_dir, target_venue="v1") -> dict[str, bytes]:
    """Run signals report, train for both scopes and evaluate on `capture`
    in-process, for `target_venue`; every file they write into `out_dir`, by
    name, except the manifests (which hold the capture's digest) and
    frames.npz."""
    paths = {
        "capture": str(capture),
        "out_dir": str(out_dir),
        "checkpoint_single": str(out_dir / "single.npz"),
        "checkpoint_cross": str(out_dir / "cross.npz"),
    }
    out_dir.mkdir()
    commands = ((["signals", "report"], "cross"), (["train"], "single"), (["train"], "cross"), (["evaluate"], "cross"))
    for command, scope in commands:
        cfg = out_dir.parent / f"{out_dir.name}_{scope}.json"
        cfg.write_text(
            json.dumps(
                {
                    **EXPERIMENT,
                    "paths": paths,
                    "signals": {**EXPERIMENT["signals"], "target_venue": target_venue},
                    "train": {**EXPERIMENT["train"], "scope": scope},
                }
            )
        )
        assert main(command + ["--config", str(cfg)]) == 0
    return {
        path.name: path.read_bytes()
        for path in sorted(out_dir.iterdir())
        if not path.name.startswith("manifest_") and path.name != "frames.npz"
    }


@pytest.fixture(scope="module")
def untransformed_outputs(market, tmp_path_factory):
    capture, _ = market
    return experiment_outputs(capture, tmp_path_factory.mktemp("untransformed") / "out")


def scaled_quantities(records, factor: float):
    """The records with every trade, book level and ticker quantity times `factor`."""
    for rec in records:
        p = rec.payload
        if isinstance(p, TradePayload):
            p = p._replace(qty=p.qty * factor)
        elif isinstance(p, BookPayload):
            p = BookPayload(
                bids=tuple((price, qty * factor) for price, qty in p.bids),
                asks=tuple((price, qty * factor) for price, qty in p.asks),
            )
        elif isinstance(p, TickerPayload):
            p = p._replace(bid_qty=p.bid_qty * factor, ask_qty=p.ask_qty * factor)
        yield rec._replace(payload=p)


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_quantities_scaled_by_a_power_of_two_give_the_same_outputs(market, untransformed_outputs, tmp_path, factor):
    capture, _ = market
    scaled = tmp_path / "scaled.ndjson"
    write_capture(scaled_quantities(read_capture(capture), factor), scaled)
    assert scaled.read_bytes() != capture.read_bytes()
    got = experiment_outputs(scaled, tmp_path / "out")
    assert {"single.npz", "cross.npz", "comparison.json", "horizon_r2.csv"} <= set(untransformed_outputs)
    assert list(got) == list(untransformed_outputs)
    for name, want in untransformed_outputs.items():
        assert got[name] == want, name


# -- every timestamp shifted by whole grid steps -----------------------------------


def shifted_in_time(records, shift_ns: int):
    """The records with every local_ts and exch_ts moved by `shift_ns`."""
    for rec in records:
        exch_ts = None if rec.exch_ts is None else rec.exch_ts + shift_ns
        yield rec._replace(local_ts=rec.local_ts + shift_ns, exch_ts=exch_ts)


@pytest.mark.parametrize("steps", [37, -5])
def test_timestamps_shifted_by_whole_grid_steps_move_only_the_trace_times(
    market, untransformed_outputs, tmp_path, steps
):
    capture, _ = market
    shift_ns = steps * GRID_NS
    shifted = tmp_path / "shifted.ndjson"
    write_capture(shifted_in_time(read_capture(capture), shift_ns), shifted)
    got = experiment_outputs(shifted, tmp_path / "out")
    assert list(got) == list(untransformed_outputs)
    traces = [name for name in got if name.startswith("trace_") and name.endswith(".csv")]
    assert traces
    for name, want in untransformed_outputs.items():
        if name not in traces:
            assert got[name] == want, name
            continue
        # Only the first field, the grid time, moves, by exactly the shift.
        got_rows = [line.split(",", 1) for line in got[name].decode().splitlines()]
        want_rows = [line.split(",", 1) for line in want.decode().splitlines()]
        assert got_rows[0] == want_rows[0] and want_rows[0][0] == "t", name
        assert len(got_rows) == len(want_rows) > 1, name
        for (got_t, got_rest), (want_t, want_rest) in zip(got_rows[1:], want_rows[1:]):
            assert got_rest == want_rest and int(got_t) == int(want_t) + shift_ns, name


# -- every venue renamed, in the same sort order ----------------------------------

RENAMED = {"v0": "Ex-A", "v1": "Ex-B", "v2": "Ex-C"}  # text no output holds otherwise


def test_venues_renamed_in_the_same_order_give_the_same_outputs(market, untransformed_outputs, tmp_path):
    capture, _ = market
    assert sorted(RENAMED) == sorted(RENAMED, key=RENAMED.get)
    renamed = tmp_path / "renamed.ndjson"
    write_capture((rec._replace(venue=RENAMED[rec.venue]) for rec in read_capture(capture)), renamed)
    got = experiment_outputs(renamed, tmp_path / "out", target_venue=RENAMED["v1"])
    assert list(got) == list(untransformed_outputs)
    checkpoints = [name for name in got if name.endswith(".npz")]
    assert checkpoints == ["cross.npz", "single.npz"]
    for name, want in untransformed_outputs.items():
        if name not in checkpoints:
            text = got[name].decode()
            for old, new in RENAMED.items():
                text = text.replace(new, old)
            assert text.encode() == want, name
            continue
        # A checkpoint names the venue it was trained for in its header alone.
        with np.load(io.BytesIO(got[name])) as got_npz, np.load(io.BytesIO(want)) as want_npz:
            assert got_npz.files == want_npz.files, name
            for member in want_npz.files:
                if member != "header_json":
                    assert got_npz[member].tobytes() == want_npz[member].tobytes(), (name, member)
            got_header = json.loads(got_npz["header_json"].tobytes())
            want_header = json.loads(want_npz["header_json"].tobytes())
        assert got_header["meta"].pop("target_venue") == RENAMED["v1"], name
        assert want_header["meta"].pop("target_venue") == "v1", name
        assert got_header == want_header, name


# -- every price scaled by a power of two -----------------------------------------


def scaled_prices(records, factor: float):
    """The records with every trade, book level and ticker price times `factor`."""
    for rec in records:
        p = rec.payload
        if isinstance(p, TradePayload):
            p = p._replace(price=p.price * factor)
        elif isinstance(p, BookPayload):
            p = BookPayload(
                bids=tuple((price * factor, qty) for price, qty in p.bids),
                asks=tuple((price * factor, qty) for price, qty in p.asks),
            )
        elif isinstance(p, TickerPayload):
            p = p._replace(bid_price=p.bid_price * factor, ask_price=p.ask_price * factor)
        yield rec._replace(payload=p)


def price_unit_columns(name: str, row: list[str]) -> dict[str, int]:
    """The cells of a CSV row of output `name` that are in price units: for
    each column, the power of the price factor the cell scales by."""
    if name.startswith("trace_"):
        return {"mid": 1, "cash": 1}
    if row[0] == "peer_spread_centered":  # the one feature the report keeps in price units
        return {"horizon_r2.csv": {"beta": -1}, "bin_curves.csv": {"bin_center": 1}}[name]
    return {}


@pytest.mark.parametrize("k", [2, -1])
def test_prices_scaled_by_a_power_of_two_scale_only_the_price_unit_outputs(market, untransformed_outputs, tmp_path, k):
    capture, _ = market
    factor = 2.0**k
    scaled = tmp_path / "scaled.ndjson"
    write_capture(scaled_prices(read_capture(capture), factor), scaled)
    got = experiment_outputs(scaled, tmp_path / "out")
    assert list(got) == list(untransformed_outputs)
    csvs = {"horizon_r2.csv", "bin_curves.csv"} | {name for name in got if name.startswith("trace_")}
    in_price_units = csvs | {"report_peer_spread_centered.json"}
    assert {"single.npz", "cross.npz", "comparison.json", "action_heatmap.csv", "trace_TWAP_0.csv"} <= set(got)
    for name, want in untransformed_outputs.items():
        if name not in in_price_units:
            assert got[name] == want, name

    # A power of two scales a float exactly, so the report's values do too.
    want = json.loads(untransformed_outputs["report_peer_spread_centered.json"])
    want["bin_curve"]["centers"] = [c * factor for c in want["bin_curve"]["centers"]]
    for fit in want["horizons"]:
        fit["beta"] /= factor
    assert json.loads(got["report_peer_spread_centered.json"]) == want

    for name in sorted(csvs):
        got_rows = [line.split(",") for line in got[name].decode().splitlines()]
        want_rows = [line.split(",") for line in untransformed_outputs[name].decode().splitlines()]
        header = want_rows[0]
        assert got_rows[0] == header and len(got_rows) == len(want_rows), name
        n_scaled = 0
        for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
            powers = price_unit_columns(name, want_row)
            for column, got_cell, want_cell in zip(header, got_row, want_row):
                if column in powers:
                    # Each side's cell is rounded to 9 digits on its own.
                    assert float(got_cell) == pytest.approx(float(want_cell) * factor ** powers[column], rel=2e-8)
                    n_scaled += 1
                else:
                    assert got_cell == want_cell, (name, column)
        assert n_scaled > 0, name
