"""One experiment module per paper table/figure.

Each module exposes ``run(seed=..., **size_knobs) -> ExperimentResult``.
:func:`all_experiments` enumerates them for the harness that regenerates
EXPERIMENTS.md and the benchmark suite.
"""

from collections.abc import Callable

from repro.experiments.base import DEFAULT_SEED, ExperimentResult

__all__ = ["DEFAULT_SEED", "ExperimentResult", "all_experiments"]


def all_experiments() -> dict[str, Callable[..., ExperimentResult]]:
    """Experiment id → runner, in the paper's presentation order.

    The figure modules load here, not with the package, so a process that
    only needs :data:`DEFAULT_SEED` (the CLI's parser) loads none of them.
    """
    from repro.experiments import (
        fig04_live_view,
        fig05_svm_vs_crowd,
        fig06_worker_prediction,
        fig07_accuracy_vs_workers,
        fig08_accuracy_vs_required,
        fig09_no_answer_vs_workers,
        fig10_no_answer_vs_reviews,
        fig11_arrival_sequences,
        fig14_approval_vs_accuracy,
        fig15_sampling_worker_accuracy,
        fig16_sampling_verification,
        fig17_alipr_vs_crowd,
        fig18_it_accuracy,
        table01_presentation,
        table34_verification_example,
    )
    from repro.experiments.fig1213_termination import run_fig12, run_fig13

    return {
        "table1": table01_presentation.run,
        "table3+4": table34_verification_example.run,
        "fig4": fig04_live_view.run,
        "fig5": fig05_svm_vs_crowd.run,
        "fig6": fig06_worker_prediction.run,
        "fig7": fig07_accuracy_vs_workers.run,
        "fig8": fig08_accuracy_vs_required.run,
        "fig9": fig09_no_answer_vs_workers.run,
        "fig10": fig10_no_answer_vs_reviews.run,
        "fig11": fig11_arrival_sequences.run,
        "fig12": run_fig12,
        "fig13": run_fig13,
        "fig14": fig14_approval_vs_accuracy.run,
        "fig15": fig15_sampling_worker_accuracy.run,
        "fig16": fig16_sampling_verification.run,
        "fig17": fig17_alipr_vs_crowd.run,
        "fig18": fig18_it_accuracy.run,
    }
