"""Application 2: Image Tagging deployed on CDAS (paper §5.2).

Each image yields one yes/no question per candidate tag; the engine runs
them through the same prediction → HIT → verification pipeline as TSA.
Two evaluation views match the paper's two figures:

* *tag recall* — of an image's true tags, how many did the system accept?
  (Figure 17's per-subject bars, comparable to ALIPR's top-k recall.)
* *decision accuracy* — fraction of all candidate-tag yes/no decisions
  that are correct (Figure 18's required-vs-real accuracy curve).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.engine.engine import (
    CrowdsourcingEngine,
    HITRunResult,
    QuestionRecord,
    seal_records,
)
from repro.engine.jobs import JobSpec
from repro.engine.planner import Projection, ceil_div
from repro.engine.scheduler import BatchSink, HITScheduler, SessionGroup
from repro.engine.templates import QueryTemplate
from repro.it.images import SyntheticImage, image_tag_questions

__all__ = ["build_it_spec", "ITResult", "ITJob"]


def build_it_spec() -> JobSpec:
    """The image-tagging job specification."""
    template = QueryTemplate(
        job_name="image-tagging",
        instructions=(
            "Look at each image and decide, for every suggested tag, "
            "whether it describes the image."
        ),
        item_label="Image",
        prompt="Does this tag apply to the image?",
    )
    return JobSpec(
        name="image-tagging",
        template=template,
        computer_tasks=(
            "collect candidate tags per image (source tags + noise tags)",
            "build one yes/no question per candidate tag",
            "assemble accepted tags into the image's final tag set",
        ),
        human_tasks=("judge whether each candidate tag applies to the image",),
    )


@dataclass(frozen=True)
class ITResult:
    """Outcome of tagging a set of images."""

    images: tuple[SyntheticImage, ...]
    records: tuple[QuestionRecord, ...]
    hit_results: tuple[HITRunResult, ...]

    def seal(self) -> None:
        """Keep the verdicts, drop their evidence (:func:`seal_records`)."""
        seal_records(self.records)

    @property
    def decision_accuracy(self) -> float:
        """Fraction of per-tag yes/no decisions matching ground truth."""
        if not self.records:
            raise ValueError("no records")
        return sum(r.correct for r in self.records) / len(self.records)

    @property
    def cost(self) -> float:
        return sum(h.cost for h in self.hit_results)

    def accepted_tags(self, image_id: str) -> tuple[str, ...]:
        """Tags the crowd accepted for one image."""
        tags = []
        prefix = f"{image_id}#"
        for record in self.records:
            qid = record.question.question_id
            if qid.startswith(prefix) and record.verdict.answer == "yes":
                tags.append(qid[len(prefix):])
        return tuple(tags)

    def tag_recall(self) -> float:
        """Mean per-image recall of true tags (Figure 17's crowd bars)."""
        if not self.images:
            raise ValueError("no images")
        total = 0.0
        for image in self.images:
            accepted = set(self.accepted_tags(image.image_id))
            total += sum(t in accepted for t in image.true_tags) / len(image.true_tags)
        return total / len(self.images)


class ITJob:
    """Run image-tagging jobs on a crowdsourcing engine.

    Parameters
    ----------
    engine:
        A calibrated :class:`CrowdsourcingEngine`.
    images_per_hit:
        How many images' tag questions are batched into one HIT.
    max_in_flight:
        Concurrent-HIT budget when :meth:`run` drives its own scheduler
        (1, the default, reproduces the historical serial behaviour).
    """

    def __init__(
        self,
        engine: CrowdsourcingEngine,
        images_per_hit: int = 5,
        max_in_flight: int = 1,
    ) -> None:
        if images_per_hit <= 0:
            raise ValueError(f"images per HIT must be positive, got {images_per_hit}")
        if max_in_flight <= 0:
            raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
        self.engine = engine
        self.images_per_hit = images_per_hit
        self.max_in_flight = max_in_flight
        self.spec = build_it_spec()

    def run(
        self,
        images: Sequence[SyntheticImage],
        required_accuracy: float,
        gold_images: Sequence[SyntheticImage] = (),
        worker_count: int | None = None,
    ) -> ITResult:
        """Tag ``images``, using ``gold_images`` as §3.3 probes."""
        scheduler = HITScheduler(self.engine, max_in_flight=self.max_in_flight)
        group = self.submit(
            scheduler,
            images,
            required_accuracy,
            gold_images=gold_images,
            worker_count=worker_count,
        )
        scheduler.run()
        return self.assemble(images, group)

    def submit(
        self,
        sink: BatchSink,
        images: Sequence[SyntheticImage],
        required_accuracy: float,
        gold_images: Sequence[SyntheticImage] = (),
        worker_count: int | None = None,
    ) -> SessionGroup:
        """Enqueue the images' tag batches on a shared scheduler or service sink.

        Batches are fed lazily — each HIT's questions are built when the
        sink opens a slot; assemble with :meth:`assemble` after running.
        """
        if not images:
            raise ValueError("no images to tag")
        gold_pool = tuple(q for img in gold_images for q in image_tag_questions(img))

        def batches():
            for start in range(0, len(images), self.images_per_hit):
                chunk = images[start : start + self.images_per_hit]
                yield [q for img in chunk for q in image_tag_questions(img)]

        return sink.add_batches(
            batches(),
            required_accuracy=required_accuracy,
            gold_pool=gold_pool,
            worker_count=worker_count,
        )

    def project(self, images: Sequence[SyntheticImage]) -> Projection:
        """Count the tagging work (tag questions, HITs) without running it.

        Mirrors :meth:`submit`'s validation but touches neither the
        market nor a scheduler — the planner's view of the job.
        """
        if not images:
            raise ValueError("no images to tag")
        items = sum(len(image.candidate_tags) for image in images)
        hits = ceil_div(len(images), self.images_per_hit)
        return Projection(windows=((items, hits),))

    def assemble(
        self, images: Sequence[SyntheticImage], group: SessionGroup
    ) -> ITResult:
        """Fold a completed group's per-HIT results into the tagging result."""
        hit_results = group.results
        records = tuple(r for h in hit_results for r in h.records)
        return ITResult(
            images=tuple(images), records=records, hit_results=tuple(hit_results)
        )
