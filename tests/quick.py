"""Registry campaigns at a size a test can afford to run twice."""

from repro.config import ExperimentConfig


def quick_campaign(name: str, overlapped: bool = False):
    """Registry entry ``name`` at two frames of the scaled dataset.

    Resolved the way ``visapult campaign --scaled --frames 2`` does. The
    shard campaign has no dataset to scale; it gets 300 sessions.
    """
    if name == "sc99-serve10k":
        config = ExperimentConfig(campaign=name, frames=2).to_campaign_config()
        return config.with_changes(
            workload=config.workload.with_changes(n_viewers=300)
        )
    return ExperimentConfig(
        campaign=name, overlapped=overlapped, frames=2, scaled=True
    ).to_campaign_config()
