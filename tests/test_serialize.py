"""Binary container round-trips plus corruption handling."""

import struct

import numpy as np
import pytest

from mtat.errors import ConfigError
from mtat.serialize import (
    CHECKPOINT_MAGIC,
    TENSOR_MAGIC,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    load_checkpoint,
    load_tensor,
    save_checkpoint,
    save_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
)
from mtat.tensor import Tensor


def test_tensor_bytes_layout_is_exact():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    blob = tensor_to_bytes(t)
    want = (
        TENSOR_MAGIC
        + struct.pack("<I", 2)
        + struct.pack("<QQ", 2, 2)
        + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
    )
    assert blob == want


def test_tensor_bytes_roundtrip_random_shapes():
    rng = np.random.default_rng(31)
    for shape in [(3,), (2, 5), (4, 3, 2), (1,)]:
        data = rng.standard_normal(shape)
        back = tensor_from_bytes(tensor_to_bytes(Tensor(data)))
        assert back.shape == tuple(shape)
        assert np.array_equal(back.data, np.asarray(data))


def test_tensor_bytes_corruption_paths():
    blob = tensor_to_bytes(Tensor([1.0, 2.0]))
    with pytest.raises(ConfigError):
        tensor_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ConfigError):
        tensor_from_bytes(blob[:-3])  # truncated payload
    with pytest.raises(ConfigError):
        tensor_from_bytes(blob + b"\0")  # trailing garbage
    huge_rank = TENSOR_MAGIC + struct.pack("<I", 1000)
    with pytest.raises(ConfigError):
        tensor_from_bytes(huge_rank)


def test_tensor_file_roundtrip(tmp_path):
    path = tmp_path / "t.mtat"
    data = np.random.default_rng(1).standard_normal((5, 3))
    save_tensor(path, Tensor(data))
    assert np.array_equal(load_tensor(path).data, data)


def test_checkpoint_roundtrip_and_key_order_independence():
    rng = np.random.default_rng(8)
    tensors = {
        "b.weight": Tensor(rng.standard_normal((2, 3))),
        "a.bias": Tensor(rng.standard_normal(4)),
    }
    reordered = {name: tensors[name] for name in ["a.bias", "b.weight"]}
    blob = checkpoint_to_bytes(tensors)
    assert blob == checkpoint_to_bytes(reordered)  # names are sorted on write
    assert blob.startswith(CHECKPOINT_MAGIC)
    back = checkpoint_from_bytes(blob)
    assert sorted(back) == ["a.bias", "b.weight"]
    for name in tensors:
        assert np.array_equal(back[name].data, tensors[name].data)


def test_checkpoint_corruption_paths():
    blob = checkpoint_to_bytes({"w": Tensor([1.0])})
    with pytest.raises(ConfigError):
        checkpoint_from_bytes(b"NOPE" + blob[4:])
    with pytest.raises(ConfigError):
        checkpoint_from_bytes(blob[:-2])
    with pytest.raises(ConfigError):
        checkpoint_from_bytes(blob + b"\0\0")


def test_checkpoint_file_roundtrip(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {"w": Tensor(np.arange(6.0).reshape(2, 3))}
    save_checkpoint(path, tensors)
    back = load_checkpoint(path)
    assert np.array_equal(back["w"].data, tensors["w"].data)
