"""signsynth: synthesize sentence-level sign-pose datasets.

The pipeline turns a word-level sign-pose lexicon, slot templates, and a raw
text corpus into stitched sentence-level pose datasets, plus the curriculum
sampler, BPE tokenizer, and translation metrics needed to train and score a
pose-based translation model on the result.
"""

__version__ = "0.1.0"
