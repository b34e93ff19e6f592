"""m-Distinct: privacy-preserving republication of dynamic microdata whose
sensitive values drift over time under a known update model."""

from .errors import (CapExceededError, InconsistentHistoryError,
                     InfeasibilityError, MDistinctError, ValidationError)
from .model import (AttributeSchema, CounterfeitMember, ExternalKnowledgeTable,
                    Hierarchy, Member, PublishedRelease, QIGroup, Record,
                    TableSchema, bounding_region, generalize)
from .updates import (USS, UpdateModel, implies, intersect,
                      is_legal_update_instance, uss_of, validate_update_model)
from .sug import (AttackMemo, RiskReport, Sug, attack_release_sequence,
                  build_sug, disclosure_risks, prune, risks_by_joint_oracle)
from .engine import (EngineState, publish, static_partition,
                     verify_m_distinct)
from .baselines import (count_vulnerable, max_risk, publish_l_diversity,
                        publish_m_invariance)
from .evaluation import ExperimentConfig, RunReport, run_experiment

__version__ = "0.1.0"
