"""Transformation-based error-driven part-of-speech tagger.

Trains a frequency lexicon plus ordered lexical and contextual rule lists
from a hand-tagged corpus, tags pre-tokenized raw text with them, and
provides a cross-validation / learning-curve evaluation harness.
"""

from .corpus import (AlignmentError, FoldPlan, ModelError, ParseError,
                     TaggedCorpus, TaggerError, Tagset, TagsetError, Token,
                     kfold_split, load_tagset, parse_raw_corpus,
                     parse_tagged_corpus, raw_sentences,
                     serialize_tagged_corpus, serialize_tagset,
                     truncate_to_words)
from .lexicon import (InitialRuleChain, Lexicon, build_lexicon,
                      classify_script, default_greek_chain, initial_tag,
                      parse_lexicon, serialize_lexicon)
from .rules import (ContextualRule, LexicalRule, TaggerModel,
                    load_model, parse_rules, save_model, serialize_rules,
                    tag_corpus)
from .learner import (RuleScore, TrainConfig, learn_contextual_rules,
                      learn_lexical_rules, train_model)
from .evaluate import (CurveRow, EvalReport, FoldResult, SynthSpec, accuracy,
                       cross_validate, generate_synthetic_corpus,
                       learning_curve, render_report_csv)

__version__ = "0.1.0"
