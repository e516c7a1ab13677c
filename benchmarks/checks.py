"""Checks of the program's outputs, made after each timed round.

Each check recomputes a value independently (BLEU-4 from n-gram
counts, word and character edit distance by full dynamic programming,
RMSS rows by brute force, FRS from the planted links) or tests a
property the output must have. None compares with stored output. A
check returns a list of problems; an empty list means the output
passed.
"""

import csv
import json
import math
import os
import xml.etree.ElementTree as ElementTree
from collections import Counter

import numpy as np

TOL = 1e-9


def close(a, b, tol=TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def read_tokens(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh.read().split("\n")[:-1]]


def read_vectors(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        fields = fh.read().split()
    count, dim = int(fields[0]), int(fields[1])
    return np.array(fields[2:], dtype=np.float64).reshape(count, dim)


def bleu4(hyps, refs) -> float:
    """Unsmoothed corpus BLEU-4 on the 0-100 scale."""
    matched, total = [0] * 4, [0] * 4
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    for h, r in zip(hyps, refs):
        for n in range(1, 5):
            hc = Counter(tuple(h[i : i + n]) for i in range(len(h) - n + 1))
            rc = Counter(tuple(r[i : i + n]) for i in range(len(r) - n + 1))
            total[n - 1] += sum(hc.values())
            matched[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
    if min(matched) == 0:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(sum(math.log(m / t) for m, t in zip(matched, total)) / 4)


def edit_distance(a, b) -> int:
    """Unit-cost Levenshtein distance over the full DP table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


def rmss_row(x: np.ndarray, y: np.ndarray, i: int, k: int) -> float:
    """Ratio margin score of pair i, from its own row and column of cosines."""
    xn = x / np.linalg.norm(x, axis=1)[:, None]
    yn = y / np.linalg.norm(y, axis=1)[:, None]
    row = yn @ xn[i]  # cos(x_i, y_j) for every j
    col = xn @ yn[i]  # cos(x_j, y_i) for every j
    margin = np.sort(row)[-k:].sum() / (2 * k) + np.sort(col)[-k:].sum() / (2 * k)
    return float(row[i] / margin)


def rmss_mean(x: np.ndarray, y: np.ndarray, k: int) -> float:
    return float(np.mean([rmss_row(x, y, i, k) for i in range(len(x))]))


def frs_of_links(links, ref_len: int) -> float:
    first = {}
    for i, j in links:
        first[i] = min(j, first.get(i, j))
    projected = [first[i] for i in sorted(first)]
    chunks = 1 + sum(1 for a, b in zip(projected, projected[1:]) if b != a + 1)
    if ref_len <= 1:
        return 1.0
    return min(1.0, max(0.0, 1.0 - (chunks - 1) / (ref_len - 1)))


def read_pharaoh(path):
    with open(path, encoding="utf-8") as fh:
        return [
            [tuple(int(v) for v in tok.split("-")) for tok in line.split()]
            for line in fh.read().split("\n")[:-1]
        ]


# ---------------------------------------------------------------------------
# per-command checks; each returns a list of problems


def check_report(out, run_dir, emb_dir, checkpoints, k=4) -> list[str]:
    problems = []
    with open(out["json"], encoding="utf-8") as fh:
        summary = json.load(fh)
    if summary["notes"]:
        problems.append(f"report notes: {summary['notes']}")
    with open(out["csv"], encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [r["checkpoint"] for r in rows] != list(checkpoints):
        return problems + [f"report rows {[r['checkpoint'] for r in rows]}"]
    refs = read_tokens(os.path.join(run_dir, "ref.txt"))
    ref_vec = read_vectors(os.path.join(emb_dir, "ref.emb"))
    src_vec = read_vectors(os.path.join(emb_dir, "src.emb"))
    for row in rows:
        ckpt = row["checkpoint"]
        hyps = read_tokens(os.path.join(run_dir, "checkpoints", ckpt, "hyp.txt"))
        if not close(float(row["bleu"]), bleu4(hyps, refs)):
            problems.append(f"{ckpt}: bleu {row['bleu']} != {bleu4(hyps, refs)}")
        if not 0.0 <= float(row["frs-vs-ref"]) <= 1.0 or float(row["ter-vs-ref"]) < 0.0:
            problems.append(f"{ckpt}: frs/ter out of range")
        hyp_vec = read_vectors(os.path.join(emb_dir, "checkpoints", ckpt, "hyp.emb"))
        for side, x in (("ref", ref_vec), ("src", src_vec)):
            want = rmss_mean(x, hyp_vec, k)
            if not close(float(row[f"rmss-vs-{side}"]), want):
                problems.append(f"{ckpt}: rmss-vs-{side} {row[f'rmss-vs-{side}']} != {want}")
    last = rows[-1]
    if float(last["bleu"]) != 100.0 or float(last["ter-vs-ref"]) != 0.0:
        problems.append(f"last checkpoint: bleu {last['bleu']}, ter {last['ter-vs-ref']}")
    charts = ElementTree.parse(out["svg"]).getroot().findall("{http://www.w3.org/2000/svg}g")
    if len(charts) != len(rows[0]) - 1:
        problems.append(f"svg has {len(charts)} charts for {len(rows[0]) - 1} series")
    return problems


def _entropy(p) -> float:
    return -sum(v * math.log(v) for v in p if v > 0.0)


def check_relevance(out_path, src_path, tgt_path) -> list[str]:
    with open(out_path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    records, summary = lines[:-1], lines[-1]["summary"]
    srcs, tgts = read_tokens(src_path), read_tokens(tgt_path)
    problems = []
    expected = [(s, t) for s in range(len(tgts)) for t in range(1, len(tgts[s]) + 1)]
    if [(r["sentence"], r["step"]) for r in records] != expected:
        return [f"relevance: records are not one per target token ({len(records)} records)"]
    src_entropies, tgt_entropies = [], []
    for r in records:
        where = f"sentence {r['sentence']} step {r['step']}"
        s_rel, t_rel = r["source_rel"], r["target_rel"]
        if len(s_rel) != len(srcs[r["sentence"]]) or len(t_rel) != r["step"] - 1:
            problems.append(f"{where}: {len(s_rel)} source and {len(t_rel)} target values")
        if min(s_rel + t_rel) < 0.0:
            problems.append(f"{where}: negative contribution")
        if not close(sum(s_rel) + sum(t_rel), 1.0):
            problems.append(f"{where}: contributions sum to {sum(s_rel) + sum(t_rel)}")
        if not (close(r["r_source"], sum(s_rel)) and close(r["r_target"], sum(t_rel))):
            problems.append(f"{where}: r_source/r_target disagree with the vectors")
        if r["step"] == 1 and not close(r["r_source"], 1.0):
            problems.append(f"{where}: r_source {r['r_source']} at step 1")
        if r["r_source"] > 0.0:
            src_entropies.append(_entropy([v / r["r_source"] for v in s_rel]))
        if t_rel and r["r_target"] > 0.0:
            tgt_entropies.append(_entropy([v / r["r_target"] for v in t_rel]))
    want = {
        "avg_source_contribution": sum(r["r_source"] for r in records) / len(records),
        "source_entropy": sum(src_entropies) / len(src_entropies),
        "target_entropy": sum(tgt_entropies) / len(tgt_entropies),
        "steps": len(records),
        "target_steps": len(tgt_entropies),
        "skipped_sentences": 0,
    }
    for key, value in want.items():
        if not close(summary[key], value):
            problems.append(f"relevance summary {key} {summary[key]} != mean {value}")
    return problems


def check_ter(out_path, hyp_path, ref_path) -> list[str]:
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    hyps, refs = read_tokens(hyp_path), read_tokens(ref_path)
    problems = []
    if result["count"] != len(refs) or len(result["sentences"]) != len(refs):
        return [f"ter: {result['count']} results for {len(refs)} pairs"]
    for n, (sent, h, r) in enumerate(zip(result["sentences"], hyps, refs)):
        bound = edit_distance(h, r)
        if not 0 <= sent["edits"] <= bound:
            problems.append(f"ter pair {n}: {sent['edits']} edits, edit distance {bound}")
        if not close(sent["ter"], sent["edits"] / len(r)):
            problems.append(f"ter pair {n}: ter {sent['ter']} != edits/ref_len")
    return problems


def check_frs(out_path, align_path, ref_path) -> list[str]:
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    links, refs = read_pharaoh(align_path), read_tokens(ref_path)
    problems = []
    for n, (sent, ln, r) in enumerate(zip(result["sentences"], links, refs)):
        monotone = all(i == j for i, j in ln) and len(ln) == len(r)
        if not 0.0 <= sent["frs"] <= 1.0 or (monotone and sent["frs"] != 1.0):
            problems.append(f"frs pair {n}: {sent['frs']} (monotone {monotone})")
        if not close(sent["frs"], frs_of_links(ln, len(r))):
            problems.append(f"frs pair {n}: {sent['frs']} != {frs_of_links(ln, len(r))}")
    if len(result["sentences"]) != len(refs):
        problems.append(f"frs: {len(result['sentences'])} results for {len(refs)} pairs")
    return problems


def check_bleu(out_path, hyp_path, ref_path) -> list[str]:
    with open(out_path, encoding="utf-8") as fh:
        score = json.load(fh)["score"]
    want = bleu4(read_tokens(hyp_path), read_tokens(ref_path))
    return [] if close(score, want) else [f"bleu {score} != {want}"]


def check_rmss(out_path, per_path, x, y, rows, k=4) -> list[str]:
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    with open(per_path, encoding="utf-8") as fh:
        per = json.load(fh)
    problems = []
    if len(per) != len(x) or result["skipped"] != 0:
        return [f"rmss: {len(per)} scores, {result['skipped']} skipped for {len(x)} pairs"]
    if not close(result["mean"], sum(per) / len(per)):
        problems.append(f"rmss mean {result['mean']} != mean of per-pair scores")
    for i in rows:
        want = rmss_row(x, y, i, k)
        if not close(per[i], want):
            problems.append(f"rmss pair {i}: {per[i]} != brute force {want}")
    return problems


def check_misspelling(out_path, in_path) -> list[str]:
    problems = []
    for n, (got, orig) in enumerate(zip(read_tokens(out_path), read_tokens(in_path))):
        if len(got) != len(orig):
            problems.append(f"misspelling line {n}: {len(got)} tokens for {len(orig)}")
            continue
        for a, b in zip(got, orig):
            if a != b and edit_distance(a, b) != 1:
                problems.append(f"misspelling line {n}: {b!r} -> {a!r}")
    return problems


def check_case(out_path, in_path) -> list[str]:
    problems = []
    for n, (got, orig) in enumerate(zip(read_tokens(out_path), read_tokens(in_path))):
        if [t.lower() for t in got] != [t.lower() for t in orig]:
            problems.append(f"case line {n}: more than case changed")
    return problems


def check_robust(out_path, clean_dir, pert_dirs, ref_path) -> list[str]:
    refs = read_tokens(ref_path)
    with open(out_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    expected = len(pert_dirs) * len(os.listdir(os.path.join(clean_dir, "checkpoints")))
    if len(rows) != expected:
        return [f"robust: {len(rows)} rows, expected {expected}"]
    for row in rows:
        ckpt = row["checkpoint"]
        clean = bleu4(read_tokens(os.path.join(clean_dir, "checkpoints", ckpt, "hyp.txt")), refs)
        pert = bleu4(
            read_tokens(os.path.join(pert_dirs[row["kind"]], "checkpoints", ckpt, "hyp.txt")), refs
        )
        if not (close(float(row["bleu_clean"]), clean) and close(float(row["bleu_pert"]), pert)):
            problems.append(f"robust {ckpt} {row['kind']}: bleu columns disagree")
        if not close(float(row["R"]), min(1.0, pert / clean)):
            problems.append(f"robust {ckpt} {row['kind']}: R {row['R']} != min(1, {pert}/{clean})")
    return problems
