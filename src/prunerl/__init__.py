"""prunerl: reinforcement-learning graph sparsification with classical
baselines, shared evaluation metrics, and a small autodiff engine."""

from .agent import Agent, AgentConfig, double_dqn_target, epsilon_at, select_action, train_loop
from .baselines import (
    baswana_sen_spanner,
    edge_forest_fire,
    l_spar,
    local_degree,
    random_edge,
    spanner_comparison_protocol,
)
from .config import RunConfig, load_run_config, rng_streams
from .errors import (
    CommunityFileError,
    ConfigError,
    ConvergenceError,
    DataError,
    DeadEdgeError,
    EdgeListParseError,
    PruneRLError,
    ShapeError,
)
from .graph import CandidateSubgraph, Graph, load_communities, load_edge_list
from .metrics import (
    UNREACHABLE,
    Partition,
    adjusted_rand_index,
    batch_spsp,
    louvain,
    modularity,
    pagerank,
    spearman_rho,
)
from .qmodel import QModel
from .replay import ReplayBuffer
from .rewards import (
    OBJECTIVES,
    CommunityReward,
    LouvainReward,
    ModularityReward,
    PagerankReward,
    RewardSpec,
    SpspReward,
    make_reward_spec,
)

__version__ = "0.1.0"
