"""Parallel scale-wise attention network for scene text recognition.

A self-contained recognizer: numpy-backed tensors with an explicit autodiff
tape, a multi-scale convolutional encoder with parallel attention branches,
a merging head producing one channel vector per decoding step, a GRU
decoder, synthetic word-image data, and an ADADELTA training loop.
"""

from .config import ModelConfig
from .decoder import DEFAULT_CHARSET, Charset, Decoder
from .encoder import Encoder, EncoderConfig
from .merging import MergingHead
from .model import TextRecognizer, stack_images
from .tensor import (GradientError, NonFiniteError, Parameter, Tape, Tensor,
                     adadelta_step, backward, finite_difference_grad, zero_grad)
from .train import evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Charset", "DEFAULT_CHARSET", "Decoder", "Encoder", "EncoderConfig",
    "GradientError", "MergingHead", "ModelConfig", "NonFiniteError",
    "Parameter", "Tape", "Tensor", "TextRecognizer", "adadelta_step",
    "backward", "evaluate", "finite_difference_grad", "stack_images",
    "train", "zero_grad", "__version__",
]
