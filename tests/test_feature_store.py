"""Dataset format round-trips and synthetic oracle formulas."""

import dataclasses
import gc
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oseg import binio
from oseg.feature_store import (
    DATASET_MAGIC,
    DATASET_VERSION,
    DatasetHeader,
    FormatError,
    load_dataset,
    read_dataset,
    write_dataset,
)
from oseg.geometry import Box, box_array, iou, iou_matrix, pixel_bounds
from oseg.seeding import rng_for
from oseg.synthetic import SyntheticWorld, generate_dataset

NAMES = ("mug", "drill", "banana", "scissors", "clamp")


def small_world(**kw) -> SyntheticWorld:
    defaults = dict(class_names=NAMES, noise=0.0, seed=7)
    defaults.update(kw)
    return SyntheticWorld(**defaults)


def records_equal(a, b) -> bool:
    if a.image_id != b.image_id or a.image_size != b.image_size:
        return False
    if not np.array_equal(a.rpn_map, b.rpn_map):
        return False
    if a.proposal_source != b.proposal_source:
        return False
    for name in ("proposal_boxes", "proposal_features"):
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or not np.array_equal(x, y):
            return False
    if len(a.gt_objects) != len(b.gt_objects):
        return False
    for g, h in zip(a.gt_objects, b.gt_objects):
        if g.class_id != h.class_id or g.box != h.box:
            return False
        if g.mask.origin != h.mask.origin:
            return False
        if not np.array_equal(g.mask.bits, h.mask.bits):
            return False
        if not np.array_equal(g.mask_features, h.mask_features):
            return False
        if not np.array_equal(g.pixel_labels, h.pixel_labels):
            return False
    return True


# -- file format -----------------------------------------------------------


def test_round_trip(tmp_path):
    world = small_world(noise=0.1, max_objects=3)
    path = tmp_path / "d.oseg"
    originals = [world.render_record(i) for i in range(4)]
    count = write_dataset(path, world.header(), originals)
    assert count == 4
    header, loaded = load_dataset(path)
    assert header == world.header()
    assert len(loaded) == 4
    for a, b in zip(originals, loaded):
        assert records_equal(a, b)


def test_streaming_read_is_lazy(tmp_path):
    world = small_world()
    path = tmp_path / "d.oseg"
    generate_dataset(path, world, 3)
    _, stream = read_dataset(path)
    first = next(stream)
    assert first.image_id == 0
    rest = list(stream)
    assert [r.image_id for r in rest] == [1, 2]


def test_unstarted_stream_closes_its_file(tmp_path):
    path = tmp_path / "d.oseg"
    generate_dataset(path, small_world(), 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, stream = read_dataset(path)
        del stream
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_empty_dataset(tmp_path):
    path = tmp_path / "d.oseg"
    header = DatasetHeader(class_names=("a",))
    assert write_dataset(path, header, []) == 0
    got, records = load_dataset(path)
    assert got == header
    assert records == []


def test_corrupt_magic(tmp_path):
    path = tmp_path / "d.oseg"
    generate_dataset(path, small_world(), 1)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_dataset(path)


def test_unknown_version(tmp_path):
    path = tmp_path / "d.oseg"
    generate_dataset(path, small_world(), 1)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        read_dataset(path)


def test_truncation_keeps_prior_records(tmp_path):
    world = small_world()
    path = tmp_path / "d.oseg"
    generate_dataset(path, world, 3)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 40])
    _, stream = read_dataset(path)
    good = [next(stream), next(stream)]
    assert records_equal(good[0], world.render_record(0))
    assert records_equal(good[1], world.render_record(1))
    with pytest.raises(FormatError) as err:
        next(stream)
    assert err.value.offset > 16


def test_corrupt_record_payload(tmp_path):
    path = tmp_path / "d.oseg"
    header = DatasetHeader(class_names=("a",))
    with open(path, "wb") as fh:
        binio.write_preamble(fh, DATASET_MAGIC, DATASET_VERSION, header.to_json())
        binio.write_block(fh, b"junk")
    _, stream = read_dataset(path)
    with pytest.raises(FormatError):
        next(stream)


def tiny_dataset(path) -> bytes:
    world = SyntheticWorld(
        class_names=("a", "b"), seed=3, image_size=(128, 128), stride=32,
        anchor_shapes=((32.0, 32.0),), rpn_dim=4, det_dim=4, seg_dim=4,
        mask_grid=4, max_objects=2, proposals_per_gt=2, background_proposals=2,
    )
    generate_dataset(path, world, 2)
    return path.read_bytes()


def record_blocks(raw) -> list:
    """``(offset, payload)`` of every record block of a dataset file."""
    pos = len(DATASET_MAGIC) + 12 + int.from_bytes(raw[8:16], "little")
    blocks = []
    while pos < len(raw):
        length = int.from_bytes(raw[pos:pos + 8], "little")
        blocks.append((pos, raw[pos + 8:pos + 8 + length]))
        pos += 8 + length
    return blocks


def split_payload(payload) -> tuple[dict, int]:
    """A record payload's meta and the payload position its blob starts at."""
    meta_len = int.from_bytes(payload[:8], "little")
    return json.loads(payload[8:8 + meta_len]), 8 + meta_len


def tensor_regions(offset, payload, header) -> list:
    """File ``(start, end)`` of every tensor of one record block, in
    stored order: rpn map, proposal features, then per ground truth its
    mask bits, mask features and pixel labels."""
    meta, blob = split_payload(payload)
    s = header.mask_grid
    sizes = [4 * int(np.prod(meta["map_shape"])),  # float32 cells
             4 * len(meta["proposal_boxes"]) * header.det_dim]
    for g in meta["gts"]:
        mh, mw = g["mask_shape"]
        sizes += [-(-mh * mw // 8), 4 * s * s * header.seg_dim, -(-s * s // 8)]
    start = offset + 8 + blob
    regions = []
    for size in sizes:
        regions.append((start, start + size))
        start += size
    assert start == offset + 8 + len(payload)
    return regions


def test_flipped_preamble_or_meta_byte_is_a_format_error(tmp_path):
    path = tmp_path / "d.oseg"
    raw = tiny_dataset(path)
    header, _ = load_dataset(path)
    blocks = record_blocks(raw)
    assert len(blocks) == 2

    def flip_each(positions) -> int:
        """Read the file once per flipped bit; returns the FormatError count."""
        rejected = 0
        for i in positions:
            for bit in (0x01, 0x20):
                data = bytearray(raw)
                data[i] ^= bit
                path.write_bytes(bytes(data))
                try:  # any other exception fails the test
                    load_dataset(path)
                except FormatError:
                    rejected += 1
        return rejected

    # every byte of the preamble and of each record's block prefix and meta
    metas = [range(0, blocks[0][0])]
    metas += [range(offset, offset + 8 + split_payload(payload)[1])
              for offset, payload in blocks]
    for positions in metas:
        assert flip_each(positions) > len(positions)  # most flips break the file
    # a strided sample of every tensor block, with each block's first and
    # last byte; a stride prime to the 4-byte cell visits every byte lane
    sample = set()
    for offset, payload in blocks:
        for start, end in tensor_regions(offset, payload, header):
            sample.update(range(start, end, 3))
            sample.add(end - 1)
    assert len(sample) > 600
    flip_each(sorted(sample))


def edit_meta(path, index, edit) -> int:
    """Apply ``edit`` to the meta of record ``index``, keeping every length
    prefix consistent; returns the record's block offset."""
    raw = path.read_bytes()
    offset, payload = record_blocks(raw)[index]
    meta, blob = split_payload(payload)
    edit(meta)
    meta_bytes = binio.canonical_json(meta)
    new = len(meta_bytes).to_bytes(8, "little") + meta_bytes + payload[blob:]
    path.write_bytes(raw[:offset] + len(new).to_bytes(8, "little") + new
                     + raw[offset + 8 + len(payload):])
    return offset


def degenerate_first_box(meta):
    meta["proposal_boxes"][0] = [10.0, 10.0, 10.0, 20.0]


def string_coordinate(meta):
    box = meta["proposal_boxes"][0]
    box[0] = str(box[0])


def bool_coordinate(meta):
    meta["proposal_boxes"][0][0] = True


def infinite_coordinate(meta):
    meta["proposal_boxes"][0][2] = float("inf")


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta["gts"][0].update(class_id=7), "class out of range"),
    (lambda meta: meta.update(image_size=[228, 128]), "image size mismatch"),
    (degenerate_first_box, "degenerate"),
    (lambda meta: meta.update(proposal_source="stosed"),
     "unknown proposal source 'stosed'"),
    (lambda meta: meta.update(image_id=3.7), "image_id: expected int"),
    (lambda meta: meta["gts"][0].update(class_id=1.9), "class_id: expected int"),
    (string_coordinate, "proposal_boxes"),
    (bool_coordinate, "proposal_boxes"),
    (infinite_coordinate, "non-finite proposal box"),
], ids=["class-id", "image-size", "degenerate-box", "unknown-source",
        "fractional-image-id", "fractional-class-id", "string-coordinate",
        "bool-coordinate", "infinite-coordinate"])
def test_record_breaking_the_header_contract_is_a_format_error(tmp_path, edit,
                                                               message):
    path = tmp_path / "d.oseg"
    tiny_dataset(path)
    offset = edit_meta(path, 1, edit)
    _, stream = read_dataset(path)
    assert next(stream).image_id == 0
    with pytest.raises(FormatError, match=message) as err:
        next(stream)
    assert err.value.offset == offset


def test_non_finite_tensor_is_a_format_error(tmp_path):
    path = tmp_path / "d.oseg"
    raw = tiny_dataset(path)
    header, _ = load_dataset(path)
    offset, payload = record_blocks(raw)[0]
    start, _ = tensor_regions(offset, payload, header)[1]  # proposal features
    data = bytearray(raw)
    data[start:start + 4] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="non-finite proposal") as err:
        load_dataset(path)
    assert err.value.offset == offset


def test_huge_header_length_is_a_format_error(tmp_path):
    path = tmp_path / "d.oseg"
    data = bytearray(tiny_dataset(path))
    data[len(DATASET_MAGIC) + 11] ^= 0x01  # top byte of the u64 length
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="truncated header"):
        read_dataset(path)


def test_validation_rejects_bad_map_shape(tmp_path):
    world = small_world()
    record = world.render_record(0)
    bad = dataclasses.replace(record, rpn_map=record.rpn_map[:, :-1])
    with pytest.raises(ValueError, match="rpn map shape"):
        write_dataset(tmp_path / "d.oseg", world.header(), [bad])


def test_record_without_proposals_keeps_its_source(tmp_path):
    world = small_world()
    header, path = world.header(), tmp_path / "d.oseg"
    adapted = dataclasses.replace(world.render_record(3),
                                  proposal_source="adapted")
    empty = dataclasses.replace(
        adapted,
        proposal_boxes=adapted.proposal_boxes[:0],
        proposal_features=adapted.proposal_features[:0],
    )
    for record in (adapted, empty,
                   dataclasses.replace(empty, proposal_source="stored")):
        write_dataset(path, header, [record])
        assert records_equal(load_dataset(path)[1][0], record)


def test_unknown_source_is_refused_on_write(tmp_path):
    world = small_world()
    record = dataclasses.replace(world.render_record(3),
                                 proposal_source="oracle")
    with pytest.raises(ValueError, match="record 3: unknown proposal source"):
        write_dataset(tmp_path / "d.oseg", world.header(), [record])


# version 2 stored the feature blocks as float64
@pytest.mark.parametrize("version", [1, 2])
def test_older_version_file_is_refused(tmp_path, version):
    path = tmp_path / "d.oseg"
    generate_dataset(path, small_world(), 1)
    raw = bytearray(path.read_bytes())
    raw[4:8] = version.to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError,
                       match=f"unsupported format version {version}"):
        read_dataset(path)


def test_oracle_record_reads_back_as_the_same_float32_bytes(tmp_path):
    world = small_world(noise=0.3, seed=5, max_objects=3)
    path = tmp_path / "d.oseg"
    generate_dataset(path, world, 3)
    _, stored = load_dataset(path)
    for record, back in zip(world.generate(3), stored, strict=True):
        pairs = [(record.rpn_map, back.rpn_map),
                 (record.proposal_features, back.proposal_features)]
        pairs += [(g.mask_features, h.mask_features)
                  for g, h in zip(record.gt_objects, back.gt_objects, strict=True)]
        for memory, read in pairs:
            assert memory.dtype == read.dtype == np.float32
            assert memory.shape == read.shape
            assert memory.tobytes() == read.tobytes()


@pytest.mark.parametrize("tensor", ["rpn map", "proposal features",
                                    "mask features"])
def test_feature_beyond_float32_range_is_refused_on_write(tmp_path, tensor):
    world = small_world()
    record = world.render_record(3)
    big = np.float64(np.finfo(np.float32).max) * 2.0
    if tensor == "rpn map":
        rpn_map = record.rpn_map.astype(np.float64)
        rpn_map[0, 0, 0] = big
        record = dataclasses.replace(record, rpn_map=rpn_map)
    elif tensor == "proposal features":
        features = record.proposal_features.astype(np.float64)
        features[-1, 0] = -big
        record = dataclasses.replace(record, proposal_features=features)
    else:
        gt = record.gt_objects[0]
        feats = gt.mask_features.astype(np.float64)
        feats[0, 0, 0] = big
        record = dataclasses.replace(record, gt_objects=(
            dataclasses.replace(gt, mask_features=feats),
            *record.gt_objects[1:]))
    path = tmp_path / "d.oseg"
    with pytest.raises(ValueError,
                       match=f"record 3: {tensor} beyond the float32 range"):
        write_dataset(path, world.header(), [world.render_record(0), record])
    # the record before it was written whole
    _, stream = read_dataset(path)
    assert records_equal(next(stream), world.render_record(0))


def test_float32_extremes_are_written_as_they_are(tmp_path):
    world = small_world()
    record = world.render_record(3)
    features = record.proposal_features.astype(np.float64)
    features[0, :2] = np.finfo(np.float32).max, -np.finfo(np.float32).max
    record = dataclasses.replace(record, proposal_features=features)
    path = tmp_path / "d.oseg"
    write_dataset(path, world.header(), [record])
    back = load_dataset(path)[1][0]
    assert back.proposal_features.tobytes() == features.astype(np.float32).tobytes()


@pytest.mark.parametrize("generator", [[1, 2], "synthetic", 3])
def test_generator_that_is_not_an_object_is_refused(tmp_path, generator):
    with pytest.raises(ValueError, match="generator must be an object"):
        DatasetHeader(class_names=("a",), generator=generator)
    path = tmp_path / "d.oseg"
    tree = dict(DatasetHeader(class_names=("a",)).to_json(),
                generator=generator)
    with open(path, "wb") as fh:
        binio.write_preamble(fh, DATASET_MAGIC, DATASET_VERSION, tree)
    with pytest.raises(FormatError, match="generator must be an object") as err:
        read_dataset(path)
    assert err.value.offset == len(DATASET_MAGIC) + 12


# -- checked readers: a value of the wrong kind is refused, never cast --------


def header_tree() -> dict:
    """A valid dataset header tree, as a reader gets it from JSON."""
    return json.loads(binio.canonical_json(small_world().header().to_json()))


def write_header(path, tree) -> None:
    with open(path, "wb") as fh:
        binio.write_preamble(fh, DATASET_MAGIC, DATASET_VERSION, tree)


@pytest.mark.parametrize("key, value", [
    ("stride", True), ("stride", 16.9), ("rpn_dim", 64.7),
    ("class_names", "ab"), ("image_size", ["320", "320"])])
def test_header_value_of_the_wrong_kind_is_a_format_error(tmp_path, key,
                                                           value):
    path = tmp_path / "d.oseg"
    write_header(path, dict(header_tree(), **{key: value}))
    with pytest.raises(FormatError, match=f"{key}: expected") as err:
        read_dataset(path)
    assert err.value.offset == len(DATASET_MAGIC) + 12


def header_positions(tree):
    """Every top-level value of a header tree, and every item of its
    lists and of their lists, as a path of keys."""
    for key, value in tree.items():
        yield (key,)
        for i, item in enumerate(value if isinstance(value, list) else []):
            yield (key, i)
            if isinstance(item, list):
                yield from ((key, i, j) for j in range(len(item)))


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_any_mistyped_header_value_is_a_format_error(data):
    tree = header_tree()
    where = data.draw(st.sampled_from(list(header_positions(tree))))
    value = data.draw(st.booleans() | st.text(max_size=4)
                      | st.floats().filter(lambda f: not f.is_integer()))
    # a class name may be any string, an anchor side any finite number
    assume(not (where[0] == "class_names" and len(where) == 2
                and isinstance(value, str)))
    assume(not (where[0] == "anchor_shapes" and len(where) == 3
                and isinstance(value, float) and math.isfinite(value)))
    target = tree
    for step in where[:-1]:
        target = target[step]
    target[where[-1]] = value
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "d.oseg"
        write_header(path, tree)
        with pytest.raises(FormatError) as err:
            read_dataset(path)
    assert where[0] in str(err.value)
    assert err.value.offset == len(DATASET_MAGIC) + 12


def test_header_round_trip_json():
    header = DatasetHeader(
        class_names=("a", "b"),
        image_size=(160, 320),
        stride=16,
        rpn_dim=8,
        det_dim=9,
        seg_dim=10,
        mask_grid=7,
        generator={"kind": "synthetic", "seed": 3},
    )
    assert DatasetHeader.from_json(header.to_json()) == header


def test_fixed_seed_byte_identical_files(tmp_path):
    a, b = tmp_path / "a.oseg", tmp_path / "b.oseg"
    generate_dataset(a, small_world(noise=0.2, seed=11, max_objects=3), 4)
    generate_dataset(b, small_world(noise=0.2, seed=11, max_objects=3), 4)
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.oseg"
    generate_dataset(c, small_world(noise=0.2, seed=12, max_objects=3), 4)
    assert a.read_bytes() != c.read_bytes()


# -- oracle formulas ---------------------------------------------------------


def test_gt_box_feature_equals_prototype():
    world = small_world(class_names=("only",), max_objects=1)
    record = world.render_record(0)
    (gt,) = record.gt_objects
    feature = world.detection_features(0, gt.box.as_array())[0]
    want = world.prototypes("det")[gt.class_id].astype(np.float32)
    assert feature.tobytes() == want.tobytes()


def test_disjoint_box_is_background():
    world = small_world(max_objects=1)
    world.set_layout(0, [(2, Box(40.0, 40.0, 100.0, 100.0))])
    feature = world.detection_features(0, Box(200.0, 200.0, 260.0, 260.0).as_array())[0]
    want = world.background_prototype("det").astype(np.float32)
    assert feature.tobytes() == want.tobytes()


def test_half_iou_mixes_prototype_and_background():
    # equal boxes shifted by w/3 overlap with IoU exactly 1/2
    world = small_world(max_objects=1)
    world.set_layout(0, [(1, Box(100.0, 100.0, 160.0, 160.0))])
    query = Box(120.0, 100.0, 180.0, 160.0)
    assert iou(query, Box(100.0, 100.0, 160.0, 160.0)) == 0.5
    expected = 0.5 * world.prototypes("det")[1] + 0.5 * world.background_prototype("det")
    got = world.detection_features(0, query.as_array())[0]
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, expected.astype(np.float32), rtol=0, atol=1e-15)


def test_oracle_matches_stored_features():
    world = small_world(noise=0.3, seed=5, max_objects=2)
    record = world.render_record(3)
    for box, feature in zip(record.proposal_boxes, record.proposal_features):
        det = world.detection_features(3, box)[0]
        assert np.array_equal(det, feature)
    for g in record.gt_objects:
        seg, _ = world.mask_feature_grid(3, g.box)
        assert np.array_equal(seg, g.mask_features)


def test_oracle_rejects_outside_box():
    world = small_world()
    outside = Box(300.0, 10.0, 340.0, 50.0)
    with pytest.raises(ValueError, match="outside image"):
        world.detection_features(0, outside.as_array())
    with pytest.raises(ValueError, match="outside image"):
        world.mask_feature_grid(0, outside)


def detection_feature_reference(world, image_id, box):
    """The region-vector formula for one box row, written out term by
    term in float64 and rounded once to float32, as the oracle returns it."""
    out = np.zeros(world.det_dim)
    total = 0.0
    for obj in world.layout(image_id):
        w = iou(box, obj.box)
        out += w * world.prototypes("det")[obj.class_id]
        total += w
    out += max(0.0, 1.0 - total) * world.background_prototype("det")
    if world.noise:
        cell = ["%.1f" % (np.round(v * 2.0) / 2.0) for v in box]
        rng = rng_for(world.seed, "noise-det", image_id, *cell)
        out += rng.normal(0.0, world.noise / np.sqrt(world.det_dim),
                          size=world.det_dim)
    return out.astype(np.float32)


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_detection_rows_equal_one_box_calls(noise):
    world = small_world(noise=noise, seed=5, max_objects=3)
    record = world.render_record(2)
    boxes = np.vstack([record.proposal_boxes, [1.0, 1.0, 9.0, 9.0]])
    order = rng_for(5, "shuffle").permutation(len(boxes))
    shuffled = boxes[order]
    repeated = np.vstack([shuffled[:4], shuffled[:4], shuffled[2:3]])
    for batch in (shuffled, repeated):
        rows = world.detection_features(2, batch)
        assert rows.shape == (len(batch), world.det_dim)
        for box, row in zip(batch, rows):
            one = world.detection_features(2, box)
            assert row.tobytes() == one[0].tobytes()
            want = detection_feature_reference(world, 2, box)
            assert row.tobytes() == want.tobytes()


def test_empty_box_list():
    world = small_world(noise=0.3)
    assert world.detection_features(0, np.empty((0, 4))).shape == (0, world.det_dim)


def test_image_without_objects_featurizes():
    world = small_world(noise=0.3)
    world.set_layout(0, [])
    boxes = box_array([Box(10.0, 10.0, 50.0, 50.0), Box(100.0, 20.0, 180.0, 90.0)])
    rows = world.detection_features(0, boxes)
    for box, row in zip(boxes, rows):
        assert row.tobytes() == detection_feature_reference(world, 0, box).tobytes()
    quiet = small_world(noise=0.0)
    quiet.set_layout(0, [])
    background = quiet.background_prototype("det").astype(np.float32)
    for row in quiet.detection_features(0, boxes):
        assert row.tobytes() == background.tobytes()


@pytest.mark.parametrize("position", [0, 1, 2])
def test_outside_box_named_wherever_it_sits(position):
    world = small_world()
    # past the right edge, zero width, NaN and infinite corners
    for bad in ([300.0, 10.0, 340.0, 50.0], [60.0, 20.0, 60.0, 90.0],
                [10.0, float("nan"), 50.0, 50.0], [10.0, 10.0, float("inf"), 50.0]):
        boxes = [[10.0, 10.0, 50.0, 50.0], [60.0, 60.0, 90.0, 90.0]]
        boxes.insert(position, bad)
        with pytest.raises(ValueError, match=re.escape(f"box {bad} outside image")):
            world.detection_features(0, np.array(boxes))


def test_oracle_quantization_determinism():
    world = small_world(noise=0.4)
    base = Box(50.2, 60.2, 110.2, 120.2)
    jittered = Box(50.1, 60.1, 110.1, 120.1)  # same 0.5 px quantization
    moved = Box(50.8, 60.2, 110.8, 120.2)
    det_a = world.detection_features(0, base.as_array())[0]
    det_b = world.detection_features(0, jittered.as_array())[0]
    det_c = world.detection_features(0, moved.as_array())[0]
    # identical noise stream, slightly different IoU term
    assert np.abs(det_a - det_b).max() < 0.05
    # a genuinely different quantization cell draws fresh noise
    assert not np.array_equal(det_a, det_c)
    det_a2 = world.detection_features(0, base.as_array())[0]
    assert np.array_equal(det_a, det_a2)


def test_rpn_map_formula_single_object():
    world = small_world(class_names=("only",))
    gt = Box(72.0, 72.0, 136.0, 136.0)  # 64x64 on the lattice at cell (6,6) +- jitter 0
    world.set_layout(0, [(0, gt)])
    rpn = world.rpn_map(0)
    proto = world.prototypes("rpn")[0]
    anchors = world.grid.anchor_boxes
    per_anchor = iou_matrix(anchors, gt.as_array())[:, 0]
    best = per_anchor.reshape(world.grid.num_locations, world.grid.num_shapes).max(1)
    rows, cols = world.grid.map_size
    expected = best.reshape(rows, cols)[:, :, None] * proto[None, None, :]
    assert rpn.dtype == np.float32
    np.testing.assert_allclose(rpn, expected.astype(np.float32), rtol=0, atol=1e-15)
    # the cell under the object center holds the prototype at full strength
    assert iou(gt, Box(72.0, 72.0, 136.0, 136.0)) == 1.0
    np.testing.assert_allclose(rpn[6, 6], proto.astype(np.float32), rtol=0,
                               atol=1e-15)


def test_mask_grid_separable_by_nearest_prototype():
    world = small_world(max_objects=3, seed=3)
    protos = world.prototypes("seg")
    background = world.background_prototype("seg")
    bank = np.vstack([protos, background])
    for image_id in range(3):
        record = world.render_record(image_id)
        for g in record.gt_objects:
            flat = g.mask_features.reshape(-1, bank.shape[1])
            nearest = ((flat[:, None, :] - bank[None, :, :]) ** 2).sum(2).argmin(1)
            predicted = nearest.reshape(g.pixel_labels.shape) == g.class_id
            assert np.array_equal(predicted, g.pixel_labels)
            assert g.pixel_labels.any()


def test_prototypes_orthonormal_and_distinct():
    world = small_world()
    for family, count in (("rpn", 5), ("det", 5), ("seg", 5)):
        protos = world.prototypes(family)
        assert protos.shape[0] == count
        full = protos
        if family != "rpn":
            full = np.vstack([protos, world.background_prototype(family)])
        gram = full @ full.T
        np.testing.assert_allclose(gram, np.eye(len(full)), atol=1e-10)


def test_placement_invariants():
    world = small_world(noise=0.1, seed=21, min_objects=1, max_objects=4)
    anchors = world.grid.anchor_boxes
    for image_id in range(30):
        layout = world.layout(image_id)
        assert 1 <= len(layout) <= 4
        boxes = np.stack([o.box.as_array() for o in layout])
        assert boxes.min() >= 2.0
        assert boxes[:, 2].max() <= 318.0 and boxes[:, 3].max() <= 318.0
        for i, a in enumerate(layout):
            assert a.class_id in world.active_classes
            best = iou_matrix(anchors, a.box.as_array()).max()
            assert best > 0.85, f"image {image_id} object {i} best anchor IoU {best}"
            for b in layout[i + 1:]:
                assert iou(a.box, b.box) == 0.0


def test_proposals_cover_iou_bands():
    world = small_world(seed=9, max_objects=2)
    for image_id in range(5):
        record = world.render_record(image_id)
        gt_boxes = np.stack([g.box.as_array() for g in record.gt_objects])
        # the ground-truth boxes lead the stored proposals
        assert np.array_equal(record.proposal_boxes[:len(gt_boxes)], gt_boxes)
        jittered = record.proposal_boxes[len(gt_boxes):]
        assert len(jittered)
        best = iou_matrix(jittered, gt_boxes).max(axis=1)
        assert any(v > 0.6 for v in best)
        assert any(0.3 < v < 0.6 for v in best)
        assert any(v < 0.3 for v in best)


def test_gt_masks_inside_boxes():
    world = small_world(seed=4, max_objects=3)
    for image_id in range(5):
        record = world.render_record(image_id)
        for g in record.gt_objects:
            x1, y1, x2, y2 = pixel_bounds(g.box, record.image_size)
            assert g.mask.origin == (x1, y1)
            assert g.mask.bits.shape == (y2 - y1, x2 - x1)
            assert g.mask.area > 0


def test_active_classes_limit_layouts():
    world = small_world(seed=13, active_classes=(1, 3), max_objects=4)
    seen = set()
    for image_id in range(20):
        seen.update(o.class_id for o in world.layout(image_id))
    assert seen == {1, 3}


def test_world_header_round_trip():
    world = small_world(noise=0.25, seed=31, active_classes=(0, 2), max_objects=2)
    clone = SyntheticWorld.from_header(world.header())
    record_a = world.render_record(5)
    record_b = clone.render_record(5)
    assert records_equal(record_a, record_b)
    for g in record_b.gt_objects:
        assert (record_b.proposal_boxes == g.box.as_array()).all(axis=1).any()


@pytest.mark.parametrize("noise", [float("nan"), float("inf")])
def test_non_finite_noise_rejected(noise):
    with pytest.raises(ValueError, match="noise"):
        small_world(noise=noise)


@pytest.mark.parametrize("noise", [float("nan"), float("inf")])
def test_from_header_rejects_non_finite_noise(noise):
    # a JSON reader accepts NaN and Infinity, and float() keeps them
    header = small_world().header()
    generator = dict(header.generator, noise=noise)
    with pytest.raises(ValueError, match="noise"):
        SyntheticWorld.from_header(dataclasses.replace(header,
                                                       generator=generator))


def test_from_header_rejects_non_synthetic():
    header = DatasetHeader(class_names=("a",), generator=None)
    with pytest.raises(ValueError, match="synthetic"):
        SyntheticWorld.from_header(header)


GENERATOR_KEYS = ("seed", "noise", "active_classes", "min_objects",
                  "max_objects", "proposals_per_gt", "background_proposals")


@pytest.mark.parametrize("key", GENERATOR_KEYS)
def test_from_header_names_a_missing_key(key):
    header = small_world().header()
    generator = {k: v for k, v in header.generator.items() if k != key}
    with pytest.raises(ValueError, match=f"lacks key '{key}'"):
        SyntheticWorld.from_header(dataclasses.replace(header,
                                                       generator=generator))


@pytest.mark.parametrize("key, value", [("noise", "loud"), ("seed", None),
                                        ("active_classes", 3),
                                        ("max_objects", [2]),
                                        ("max_objects", 2.7), ("seed", True),
                                        ("active_classes", [0.9, 1])])
def test_from_header_names_an_ill_typed_key(key, value):
    header = small_world().header()
    generator = dict(header.generator, **{key: value})
    with pytest.raises(ValueError, match=f"key '{key}'"):
        SyntheticWorld.from_header(dataclasses.replace(header,
                                                       generator=generator))


@pytest.mark.parametrize("active", [(0.9, 1), (True, 1), ("0",)])
def test_active_classes_must_be_class_indices(active):
    with pytest.raises(ValueError, match="active_classes"):
        small_world(active_classes=active)


def test_header_survives_a_world_round_trip():
    # every contract field off its default, so each one must be carried
    world = SyntheticWorld(
        class_names=("a", "b", "c"), noise=0.25, seed=31,
        image_size=(128, 96), stride=32, anchor_shapes=((32.0, 16.0),),
        rpn_dim=4, det_dim=5, seg_dim=6, mask_grid=4, active_classes=(0, 2),
        min_objects=2, max_objects=2, proposals_per_gt=3,
        background_proposals=1)
    header = world.header()
    again = SyntheticWorld.from_header(header).header()
    assert again == header
    assert (binio.canonical_json(again.to_json())
            == binio.canonical_json(header.to_json()))


def test_generate_checks_its_count_at_the_call(tmp_path):
    world = small_world()
    with pytest.raises(ValueError, match="num_images"):
        world.generate(0)
    with pytest.raises(ValueError, match="num_images"):
        generate_dataset(tmp_path / "d.oseg", world, 0)
    assert not (tmp_path / "d.oseg").exists()
