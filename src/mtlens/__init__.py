"""Analysis toolkit for machine-translation outputs.

Computes word-order monotonicity (FRS, TER), quality (BLEU),
robustness/consistency under input perturbation, margin-based
semantic similarity over ingested embeddings, and relevance-based
source/target contribution statistics through a desk-scale
transformer, over single corpora or whole checkpoint series.
"""

from .align import Alignment, TranslationTable, read_pharaoh, train_model1, viterbi_align
from .corpus import AnalysisRun, CheckpointRun, Corpus, Sentence, load_corpus, load_run, save_corpus
from .errors import DataError, NumericError, UsageError
from .lrp import ContributionStats, RelevanceRecord, contribution_stats, contributions, lrp_backward
from .perturb import PerturbationKind, PerturbationSpec, misspell_word, perturb_corpus
from .quality import BleuScore, corpus_bleu
from .report import collect, emit_csv, emit_svg
from .robustness import RobustnessReport, consistency, robustness_report, robustness_suite
from .semsim import EmbeddingSet, RmssResult, embedding_set, load_embeddings, rmss, save_embeddings
from .series import MetricSeries, SeriesPoint
from .transformer import TransformerModel, Vocab, build_vocab, forward, init_model, load_model, load_vocab, save_model, save_vocab
from .wordorder import WORDORDER_METRICS, ReorderingResult, TerResult, corpus_frs, corpus_wordorder, frs, levenshtein, ter

__version__ = "0.1.0"
