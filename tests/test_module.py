"""Every model saves and loads through ``nn.Module``."""

from pathlib import Path

import numpy as np
import pytest

from seqshot import augment, detector, nn, pretrain
from seqshot.errors import FormatError

FROZEN = Path(__file__).resolve().parents[1] / "bench" / "frozen"
TINY = pretrain.ModelConfig(n_classes=2, channels=(4, 6, 8, 10, 12),
                            head_hidden=16, embed_dim=8)


@pytest.mark.parametrize("name, cls", [
    ("weak", pretrain.WeakModel),
    ("strong", pretrain.StrongModel),
    ("delta", augment.DeltaEncoder),
])
def test_frozen_checkpoint_resaves_byte_for_byte(tmp_path, name, cls):
    src = FROZEN / f"{name}.ckpt"
    cls.load(src).save(tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == src.read_bytes()


@pytest.mark.parametrize("cls", [pretrain.WeakModel, pretrain.StrongModel])
def test_checkpoint_without_embed_tap_is_refused(tmp_path, cls):
    # every embedder checkpoint stores the fixed tap
    path = tmp_path / "m.ckpt"
    cls(TINY).save(path)
    kind, tensors = nn.read_checkpoint(path)
    assert tensors["meta/embed_tap"].tolist() == [pretrain.EMBED_TAP]
    del tensors["meta/embed_tap"]
    nn.write_checkpoint(path, kind, tensors)
    with pytest.raises(FormatError,
                       match=r"missing meta tensors: \['embed_tap'\]"):
        cls.load(path)


def test_one_graph_module_names_carry_no_graph_prefix(tmp_path):
    net = detector.DetectorNet(detector.DetectorConfig(embed_dim=4,
                                                       n_conv=1))
    net.save(tmp_path / "d.ckpt")
    _, tensors = nn.read_checkpoint(tmp_path / "d.ckpt")
    assert list(tensors) == [
        "proj/W", "proj/b", "conv0/W", "conv0/b", "head/W", "head/b",
        "meta/embed_dim", "meta/proj_dim", "meta/n_conv", "meta/kernel"]
