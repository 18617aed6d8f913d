"""Model checking and frame analysis for the epistemic Xstit language over
finite Kripke structures: parsing, evaluation, frame-condition validation,
axiom soundness suites, and windowed model transformations.
"""

from .formula import (Atom, Box, CommonKnows, DepthProfile, Diamond, Formula,
                      Implies, Knows, Macro, Next, Not, Or, And, Stit, StitAgs,
                      Yesterday, depth_profile, expand_macros, normalize, parse,
                      subformulas, to_text)
from .model import FrameReport, KripkeModel, load_model, validate_frame
from .scenario import BDTScenario, bdt_to_kripke, figure1_scenario, load_scenario
from .checker import (KnowledgeReport, check_refinement, eval_formula, extension,
                      knowledge_report, valid_on_model)
from .axioms import SCHEMAS, SuitePolicy, derived_theorem_suite, instantiate, soundness_suite
from .gen import GenParams, model_grid, random_formula, random_model
from .transform import (ChoiceProfileTable, MorphismReport, WindowModel, actualize,
                        check_bounded_morphism, choice_profiles, truth_preservation, unravel,
                        validate_window, window_eval)

__version__ = "0.1.0"
