"""Training loop, evaluation, and the learning-rate schedule."""

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import save_checkpoint
from .data import SyntheticDataset, apply_transform, preprocess
from .model import TextRecognizer, stack_images
from .tensor import NonFiniteError, Tape, adadelta_step, backward, zero_grad


def lr_scale_for_epoch(epoch):
    """1.0 through epoch 3, 0.1 from epoch 4 onward (epochs are 1-indexed)."""
    return 1.0 if epoch <= 3 else 0.1


def dataset_from_config(cfg, count=None, seed_stream=1):
    """Build the synthetic corpus a config describes. seed_stream separates
    train (1) from eval (2) draws under the same master seed."""
    return SyntheticDataset(cfg.train_samples if count is None else count,
                            [cfg.seed, seed_stream], cfg.alphabet, min_len=cfg.label_min_len,
                            max_len=cfg.label_max_len, opts=cfg.render_options())


@dataclass
class TrainResult:
    model: TextRecognizer
    metrics: list = field(default_factory=list)
    checkpoint_path: str = None


def _describe(node):
    where = f" in {node.scope!r}" if node.scope else ""
    return f"{node.op}{where}"


def train(cfg, dataset=None, out_path=None, log_fn=None, target_loss=None):
    """Run the training loop and return the trained model plus metrics.

    Each step: assemble a batch, run the teacher-forced forward pass, check
    the loss is finite, backpropagate, apply one ADADELTA update scaled by
    the epoch schedule, and clear gradients. One metrics dict per step is
    collected and passed to log_fn when given. With target_loss set, training
    stops once three consecutive step losses fall below it. The whole run is
    deterministic in (config, dataset) and runs at the config's precision,
    which the model carries; the dataset's float32 images are widened for a
    float64 model.
    """
    cfg.validate()
    model = TextRecognizer(cfg)
    model.train()
    params = model.params()
    if dataset is None:
        dataset = dataset_from_config(cfg)
    order_rng = np.random.default_rng([cfg.seed, 17])
    metrics = []
    step = 0
    recent = []
    stop = False
    for epoch in range(1, cfg.epochs + 1):
        order = order_rng.permutation(len(dataset))
        lr_scale = lr_scale_for_epoch(epoch)
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            images = stack_images([dataset.image(int(i)) for i in batch])
            labels = [dataset.label(int(i)) for i in batch]
            with Tape() as tape:
                loss = model.loss(images, labels)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    node = tape.first_nonfinite()
                    source = _describe(node) if node else "loss"
                    raise NonFiniteError(f"non-finite loss at step {step + 1}: "
                                         f"first non-finite tensor from {source}")
                backward(loss, tape)
            adadelta_step(params, lr_scale=lr_scale)
            zero_grad(params)
            step += 1
            line = {"step": step, "epoch": epoch, "loss": loss_val, "lr_scale": lr_scale}
            metrics.append(line)
            if log_fn:
                log_fn(line)
            if target_loss is not None:
                recent.append(loss_val)
                if len(recent) >= 3 and all(v < target_loss for v in recent[-3:]):
                    stop = True
            if cfg.max_steps is not None and step >= cfg.max_steps:
                stop = True
            if stop:
                break
        if stop:
            break
        if out_path:
            save_checkpoint(out_path, model)  # epoch-boundary snapshot
    if out_path:
        save_checkpoint(out_path, model)
    return TrainResult(model=model, metrics=metrics, checkpoint_path=out_path)


@dataclass
class EvalResult:
    accuracy: float
    predictions: list
    labels: list


def evaluate(model, dataset, transform="none", batch_size=16):
    """Greedy-decode a dataset and score case-insensitive exact matches.

    The requested robustness transform is applied to each raw render before
    preprocessing. Recognition is untaped, so it runs inference arithmetic
    in any batch-norm mode and touches no parameter, running statistic or
    mode.
    """
    predictions = []
    labels = []
    for start in range(0, len(dataset), batch_size):
        idxs = range(start, min(start + batch_size, len(dataset)))
        imgs = []
        for i in idxs:
            raw = dataset.raw(i)
            raw = apply_transform(raw, transform, seed=[dataset.seed(i), 1])
            imgs.append(preprocess(raw))
            labels.append(dataset.label(i))
        predictions.extend(model.recognize(stack_images(imgs)))
    hits = sum(p.casefold() == l.casefold() for p, l in zip(predictions, labels))
    return EvalResult(accuracy=hits / max(1, len(labels)),
                      predictions=predictions, labels=labels)
