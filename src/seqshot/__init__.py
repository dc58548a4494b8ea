"""Few-shot detection of acoustic sequences.

Subpackages/modules:
  dsp        audio I/O, logmel, signal-domain augmentation
  nn         minimal numpy NN engine with reverse-mode backward
  pretrain   weak/distilled/strong embedding training, pseudo labels
  curation   onset/offset estimation from unsegmented enrollment shots
  augment    embedding-space target augmentation and negative synthesis
  detector   binary detector over embedding sequences
  corpus     deterministic synthetic acoustic-sequence datasets
  evaluate   episode protocol, AUPRC, difficulty index
"""

__version__ = "0.1.0"
