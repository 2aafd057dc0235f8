// Reproduces the paper's tables and figures from one driver: Table III
// (dataset statistics), Table IV (model comparison), Table V / Figs. 7-8
// (ablations), Table VI (multi-hop), Figs. 9-10 (depth), Figs. 11/13 (MPR
// alpha), Figs. 12/14 (contrastive temperature), plus two studies that are
// not paper tables: the evaluation-protocol ablation (DESIGN.md §4/§5) and
// the Section II related-work taxonomy.
//
// Each experiment is a list of cells (dataset, model, config overrides).
// Every cell runs through core::RunRepeatedExperiment over --seeds model
// seeds and prints one row: mean test acc, F1 and AUC, then the paper's
// acc/F1 where the paper reports that cell. BENCH_paper.json in the working
// directory holds one record per cell, with every seed's metrics.
//
//   ./build/bench/bench_paper [--experiment=table4] [--scale=0.06]
//       [--epochs=300] [--seeds=1] [--dims=64,32,16]
//       [--datasets=ciao,epinions] [--models=GAT,AHNTP]
//
// With no --experiment every experiment runs, in the order listed below.
// --models keeps only the cells of the named models.

#include <algorithm>
#include <utility>

#include "bench_util.h"
#include "common/fileio.h"
#include "core/repeated.h"

namespace {

using namespace ahntp;

// Paper-reported test accuracy and F1 (%), keyed by experiment, dataset,
// model and the cell's settings (its overrides as "key=value" words).
// Cells the paper reports no value for are absent.
struct PaperValue {
  const char* experiment;
  const char* dataset;
  const char* model;
  const char* settings;
  double acc;
  double f1;
};

constexpr PaperValue kPaper[] = {
    // Table IV: training-set fraction.
    {"table4", "Ciao", "GAT", "train=0.50", 59.76, 66.47},
    {"table4", "Ciao", "GAT", "train=0.60", 61.03, 68.08},
    {"table4", "Ciao", "GAT", "train=0.70", 62.17, 70.61},
    {"table4", "Ciao", "GAT", "train=0.80", 63.01, 70.85},
    {"table4", "Ciao", "SGC", "train=0.50", 67.40, 67.53},
    {"table4", "Ciao", "SGC", "train=0.60", 68.29, 68.58},
    {"table4", "Ciao", "SGC", "train=0.70", 68.39, 68.78},
    {"table4", "Ciao", "SGC", "train=0.80", 68.81, 69.76},
    {"table4", "Ciao", "Guardian", "train=0.50", 71.27, 71.84},
    {"table4", "Ciao", "Guardian", "train=0.60", 71.62, 72.28},
    {"table4", "Ciao", "Guardian", "train=0.70", 71.90, 72.67},
    {"table4", "Ciao", "Guardian", "train=0.80", 71.94, 73.32},
    {"table4", "Ciao", "AtNE-Trust", "train=0.50", 62.24, 62.76},
    {"table4", "Ciao", "AtNE-Trust", "train=0.60", 62.66, 63.03},
    {"table4", "Ciao", "AtNE-Trust", "train=0.70", 63.52, 65.37},
    {"table4", "Ciao", "AtNE-Trust", "train=0.80", 66.58, 69.92},
    {"table4", "Ciao", "KGTrust", "train=0.50", 71.72, 72.85},
    {"table4", "Ciao", "KGTrust", "train=0.60", 72.11, 73.11},
    {"table4", "Ciao", "KGTrust", "train=0.70", 72.34, 73.23},
    {"table4", "Ciao", "KGTrust", "train=0.80", 72.36, 74.06},
    {"table4", "Ciao", "UniGCN", "train=0.50", 74.89, 83.39},
    {"table4", "Ciao", "UniGCN", "train=0.60", 82.37, 87.69},
    {"table4", "Ciao", "UniGCN", "train=0.70", 82.44, 87.84},
    {"table4", "Ciao", "UniGCN", "train=0.80", 83.10, 88.33},
    {"table4", "Ciao", "UniGAT", "train=0.50", 82.56, 87.63},
    {"table4", "Ciao", "UniGAT", "train=0.60", 82.80, 87.64},
    {"table4", "Ciao", "UniGAT", "train=0.70", 83.15, 87.84},
    {"table4", "Ciao", "UniGAT", "train=0.80", 83.64, 88.31},
    {"table4", "Ciao", "HGNN+", "train=0.50", 82.16, 87.33},
    {"table4", "Ciao", "HGNN+", "train=0.60", 82.04, 87.34},
    {"table4", "Ciao", "HGNN+", "train=0.70", 82.23, 87.46},
    {"table4", "Ciao", "HGNN+", "train=0.80", 82.28, 88.00},
    {"table4", "Ciao", "AHNTP", "train=0.50", 85.12, 88.90},
    {"table4", "Ciao", "AHNTP", "train=0.60", 85.44, 89.36},
    {"table4", "Ciao", "AHNTP", "train=0.70", 85.56, 89.59},
    {"table4", "Ciao", "AHNTP", "train=0.80", 86.11, 90.11},
    {"table4", "Epinions", "GAT", "train=0.50", 61.70, 65.60},
    {"table4", "Epinions", "GAT", "train=0.60", 61.92, 66.64},
    {"table4", "Epinions", "GAT", "train=0.70", 64.76, 72.67},
    {"table4", "Epinions", "GAT", "train=0.80", 70.79, 72.84},
    {"table4", "Epinions", "SGC", "train=0.50", 77.22, 77.63},
    {"table4", "Epinions", "SGC", "train=0.60", 77.57, 77.63},
    {"table4", "Epinions", "SGC", "train=0.70", 77.82, 78.05},
    {"table4", "Epinions", "SGC", "train=0.80", 78.17, 78.56},
    {"table4", "Epinions", "Guardian", "train=0.50", 80.15, 80.41},
    {"table4", "Epinions", "Guardian", "train=0.60", 80.22, 80.51},
    {"table4", "Epinions", "Guardian", "train=0.70", 80.31, 80.58},
    {"table4", "Epinions", "Guardian", "train=0.80", 80.55, 80.86},
    {"table4", "Epinions", "AtNE-Trust", "train=0.50", 71.90, 72.87},
    {"table4", "Epinions", "AtNE-Trust", "train=0.60", 73.01, 73.74},
    {"table4", "Epinions", "AtNE-Trust", "train=0.70", 73.40, 73.80},
    {"table4", "Epinions", "AtNE-Trust", "train=0.80", 73.59, 74.29},
    {"table4", "Epinions", "KGTrust", "train=0.50", 80.59, 81.05},
    {"table4", "Epinions", "KGTrust", "train=0.60", 80.65, 81.11},
    {"table4", "Epinions", "KGTrust", "train=0.70", 80.96, 81.46},
    {"table4", "Epinions", "KGTrust", "train=0.80", 81.14, 81.70},
    {"table4", "Epinions", "UniGCN", "train=0.50", 86.78, 91.11},
    {"table4", "Epinions", "UniGCN", "train=0.60", 87.52, 91.53},
    {"table4", "Epinions", "UniGCN", "train=0.70", 87.95, 91.78},
    {"table4", "Epinions", "UniGCN", "train=0.80", 87.96, 91.79},
    {"table4", "Epinions", "UniGAT", "train=0.50", 86.38, 90.77},
    {"table4", "Epinions", "UniGAT", "train=0.60", 86.59, 90.96},
    {"table4", "Epinions", "UniGAT", "train=0.70", 86.41, 90.84},
    {"table4", "Epinions", "UniGAT", "train=0.80", 86.24, 90.83},
    {"table4", "Epinions", "HGNN+", "train=0.50", 86.33, 90.78},
    {"table4", "Epinions", "HGNN+", "train=0.60", 86.39, 90.79},
    {"table4", "Epinions", "HGNN+", "train=0.70", 86.16, 90.74},
    {"table4", "Epinions", "HGNN+", "train=0.80", 86.37, 90.92},
    {"table4", "Epinions", "AHNTP", "train=0.50", 89.21, 92.51},
    {"table4", "Epinions", "AHNTP", "train=0.60", 89.48, 92.75},
    {"table4", "Epinions", "AHNTP", "train=0.70", 89.55, 92.79},
    {"table4", "Epinions", "AHNTP", "train=0.80", 89.78, 92.94},
    // Table V: the variants' values follow from the deltas Section V-C
    // reports. The Epinions paragraph spells out only the noatt delta.
    {"ablation", "Ciao", "AHNTP", "", 86.11, 90.11},
    {"ablation", "Ciao", "AHNTP-nompr", "", 86.11 - 2.09, 90.11 - 1.33},
    {"ablation", "Ciao", "AHNTP-noatt", "", 86.11 - 4.94, 90.11 - 2.87},
    {"ablation", "Ciao", "AHNTP-nocon", "", 86.11 - 4.20, 90.11 - 2.64},
    {"ablation", "Epinions", "AHNTP", "", 89.78, 92.94},
    {"ablation", "Epinions", "AHNTP-noatt", "", 89.78 - 2.76, 92.94 - 1.82},
    // Table VI: the paper's widths are small = 64-32-16, big = 256-128-64.
    {"table6", "Ciao", "HGNN+", "width=small hop=1", 68.05, 80.98},
    {"table6", "Ciao", "HGNN+", "width=small hop=2", 74.68, 82.77},
    {"table6", "Ciao", "HGNN+", "width=small hop=3", 68.05, 80.98},
    {"table6", "Ciao", "HGNN+", "width=big hop=1", 82.28, 88.00},
    {"table6", "Ciao", "HGNN+", "width=big hop=2", 81.36, 87.42},
    {"table6", "Ciao", "HGNN+", "width=big hop=3", 75.55, 83.09},
    {"table6", "Ciao", "AHNTP", "width=small hop=1", 83.82, 88.68},
    {"table6", "Ciao", "AHNTP", "width=small hop=2", 84.02, 88.76},
    {"table6", "Ciao", "AHNTP", "width=small hop=3", 75.35, 82.50},
    {"table6", "Ciao", "AHNTP", "width=big hop=1", 86.11, 90.11},
    {"table6", "Ciao", "AHNTP", "width=big hop=2", 81.21, 87.11},
    {"table6", "Ciao", "AHNTP", "width=big hop=3", 68.94, 81.25},
    {"table6", "Epinions", "HGNN+", "width=small hop=1", 84.36, 90.01},
    {"table6", "Epinions", "HGNN+", "width=small hop=2", 86.40, 90.90},
    {"table6", "Epinions", "HGNN+", "width=small hop=3", 84.34, 90.00},
    {"table6", "Epinions", "HGNN+", "width=big hop=1", 86.37, 90.92},
    {"table6", "Epinions", "HGNN+", "width=big hop=2", 82.04, 90.08},
    {"table6", "Epinions", "HGNN+", "width=big hop=3", 84.45, 90.09},
    {"table6", "Epinions", "AHNTP", "width=small hop=1", 86.25, 91.35},
    {"table6", "Epinions", "AHNTP", "width=small hop=2", 86.62, 91.50},
    {"table6", "Epinions", "AHNTP", "width=small hop=3", 84.17, 90.22},
    {"table6", "Epinions", "AHNTP", "width=big hop=1", 89.78, 92.94},
    {"table6", "Epinions", "AHNTP", "width=big hop=2", 85.50, 90.37},
    {"table6", "Epinions", "AHNTP", "width=big hop=3", 85.68, 90.26},
};

// Table III: the statistics of the real datasets.
struct PaperDataset {
  const char* dataset;
  long users;
  long items;
  long purchases;
  long trust;
  double sparsity_percent;
};

constexpr PaperDataset kPaperDatasets[] = {
    {"Ciao", 4104, 75071, 171405, 41675, 0.49499},
    {"Epinions", 8935, 21335, 220673, 65948, 0.16523},
};

using Overrides = std::vector<std::pair<std::string, std::string>>;

struct Cell {
  std::string dataset;
  std::string model;
  Overrides overrides;

  std::string Settings() const {
    std::vector<std::string> words;
    for (const auto& [key, value] : overrides) {
      words.push_back(key + "=" + value);
    }
    return StrJoin(words, " ");
  }
};

/// One axis of a sweep: an override key and the values it takes.
using Axis = std::pair<std::string, std::vector<std::string>>;

/// Every (dataset, model, value of each axis) combination, the first axis
/// outermost.
std::vector<Cell> Grid(const std::vector<std::string>& datasets,
                       const std::vector<std::string>& models,
                       const std::vector<Axis>& axes = {}) {
  std::vector<Cell> cells;
  for (const std::string& dataset : datasets) {
    for (const std::string& model : models) {
      cells.push_back({dataset, model, {}});
    }
  }
  for (const auto& [key, values] : axes) {
    std::vector<Cell> expanded;
    for (const Cell& cell : cells) {
      for (const std::string& value : values) {
        expanded.push_back(cell);
        expanded.back().overrides.emplace_back(key, value);
      }
    }
    cells = std::move(expanded);
  }
  return cells;
}

std::vector<Cell> Concat(std::vector<std::vector<Cell>> parts) {
  std::vector<Cell> cells;
  for (auto& part : parts) cells.insert(cells.end(), part.begin(), part.end());
  return cells;
}

/// Applies one override to a config whose hidden_dims hold --dims.
void ApplyOverride(const std::string& key, const std::string& value,
                   core::ExperimentConfig* config) {
  auto number = [&value] {
    auto parsed = ParseDouble(value);
    AHNTP_CHECK(parsed.ok()) << parsed.status().ToString();
    return parsed.value();
  };
  if (key == "train") {
    config->split.train_fraction = number();
  } else if (key == "width") {
    // Table VI's two widths: big is --dims, small halves each width.
    AHNTP_CHECK(value == "big" || value == "small") << "width=" << value;
    if (value == "small") {
      for (size_t& d : config->hidden_dims) d /= 2;
    }
  } else if (key == "hop") {
    const int hop = static_cast<int>(number());
    config->baseline_multi_hop = hop;  // HGNN+
    config->ahntp.multi_hop = hop;     // AHNTP
  } else if (key == "layers") {
    // Widths halve from --dims' first, clamped at its last (64-32-16-16-16
    // for 5 layers at the default dims).
    const int layers = static_cast<int>(number());
    const size_t floor_width = config->hidden_dims.back();
    size_t width = config->hidden_dims.front();
    config->hidden_dims.clear();
    for (int l = 0; l < layers; ++l) {
      config->hidden_dims.push_back(std::max(width, floor_width));
      width /= 2;
    }
  } else if (key == "alpha") {
    config->ahntp.mpr_alpha = number();
  } else if (key == "t") {
    config->trainer.temperature = static_cast<float>(number());
  } else if (key == "hard") {
    config->split.hard_negative_fraction = number();
  } else if (key == "neg/pos") {
    config->split.train_negatives_per_positive = static_cast<int>(number());
  } else if (key == "split") {
    AHNTP_CHECK(value == "random" || value == "temporal") << "split=" << value;
    config->temporal_split = value == "temporal";
  } else if (key == "heads") {
    config->ahntp.attention_heads = static_cast<size_t>(number());
  } else {
    AHNTP_CHECK(false) << "unknown override " << key;
  }
}

struct Row {
  const char* experiment;
  Cell cell;
  core::RepeatedResult result;
  const PaperValue* paper;  // null where the paper reports no value
};

/// Runs one cell over --seeds model seeds. A failed run aborts: a cell never
/// averages fewer seeds than asked for.
Row RunCell(const char* experiment, const Cell& cell,
            const data::SocialDataset& dataset,
            const bench::BenchOptions& options) {
  core::ExperimentConfig config = bench::BaseExperimentConfig(options);
  config.model = cell.model;
  for (const auto& [key, value] : cell.overrides) {
    ApplyOverride(key, value, &config);
  }
  auto result = core::RunRepeatedExperiment(dataset, config,
                                            std::max(options.num_seeds, 1));
  AHNTP_CHECK(result.ok() && result->num_failed == 0)
      << cell.model << " " << cell.Settings() << ": "
      << (result.ok() ? result->ToString() : result.status().ToString());
  const PaperValue* paper = nullptr;
  for (const PaperValue& value : kPaper) {
    if (std::string(experiment) == value.experiment &&
        cell.dataset == value.dataset && cell.model == value.model &&
        cell.Settings() == value.settings) {
      paper = &value;
    }
  }
  return {experiment, cell, std::move(result).value(), paper};
}

/// Prints a cell's row, after a header naming its override keys when they
/// differ from the previous row's.
void PrintRow(const Row& row, const Row* previous) {
  std::vector<std::string> keys, values;
  for (const auto& [key, value] : row.cell.overrides) {
    keys.push_back(key);
    values.push_back(value);
  }
  std::vector<std::string> previous_keys;
  if (previous != nullptr) {
    for (const auto& [key, value] : previous->cell.overrides) {
      previous_keys.push_back(key);
    }
  }
  if (previous == nullptr || keys != previous_keys) {
    std::printf("%-9s %-16s %-12s | %6s %6s %6s\n", "dataset", "model",
                StrJoin(keys, " ").c_str(), "acc%", "f1%", "auc");
  }
  std::string paper;
  if (row.paper != nullptr) {
    paper = StrFormat(" | paper %6.2f %6.2f", row.paper->acc, row.paper->f1);
  }
  std::printf("%-9s %-16s %-12s | %6.2f %6.2f %6.4f%s\n",
              row.cell.dataset.c_str(), row.cell.model.c_str(),
              StrJoin(values, " ").c_str(), row.result.accuracy.mean * 100.0,
              row.result.f1.mean * 100.0, row.result.auc.mean, paper.c_str());
  std::fflush(stdout);
}

/// Rows of one dataset, in cell order.
std::vector<const Row*> RowsOf(const std::vector<Row>& rows,
                               const std::string& dataset) {
  std::vector<const Row*> out;
  for (const Row& row : rows) {
    if (row.cell.dataset == dataset) out.push_back(&row);
  }
  return out;
}

const char* const kDatasetNames[] = {"Ciao", "Epinions"};

/// Table IV's "Improvement" column: AHNTP minus the best baseline, per
/// training fraction.
void PrintImprovement(const std::vector<Row>& rows) {
  for (const char* dataset : kDatasetNames) {
    std::vector<std::pair<std::string, double>> ahntp;  // train, acc
    for (const Row* row : RowsOf(rows, dataset)) {
      if (row->cell.model == "AHNTP") {
        ahntp.emplace_back(row->cell.overrides[0].second,
                           row->result.accuracy.mean);
      }
    }
    for (const auto& [train, acc] : ahntp) {
      double best = -1.0;
      for (const Row* row : RowsOf(rows, dataset)) {
        if (row->cell.model != "AHNTP" &&
            row->cell.overrides[0].second == train) {
          best = std::max(best, row->result.accuracy.mean);
        }
      }
      if (best < 0.0) continue;
      std::printf(
          "%s: improvement of AHNTP over best baseline at train=%s: %+.2f "
          "points (paper reports +1.6 to +2.6)\n",
          dataset, train.c_str(), (acc - best) * 100.0);
    }
  }
}

/// Table V: how far full AHNTP is ahead of each ablation.
void PrintAhead(const std::vector<Row>& rows) {
  for (const char* dataset : kDatasetNames) {
    const Row* full = nullptr;
    for (const Row* row : RowsOf(rows, dataset)) {
      if (row->cell.model == "AHNTP") full = row;
    }
    if (full == nullptr) continue;
    for (const Row* row : RowsOf(rows, dataset)) {
      if (row == full) continue;
      std::printf("%s: full AHNTP is %+.2f acc points ahead of %s\n", dataset,
                  (full->result.accuracy.mean - row->result.accuracy.mean) *
                      100.0,
                  row->cell.model.c_str());
    }
  }
}

/// The first cell of highest accuracy in a one-axis sweep.
void PrintBest(const std::vector<Row>& rows, const char* key,
               const char* paper_best) {
  for (const char* dataset : kDatasetNames) {
    const Row* best = nullptr;
    for (const Row* row : RowsOf(rows, dataset)) {
      if (best == nullptr ||
          row->result.accuracy.mean > best->result.accuracy.mean) {
        best = row;
      }
    }
    if (best == nullptr) continue;
    std::printf("%s: measured best %s: %s (paper: %s)\n", dataset, key,
                best->cell.overrides[0].second.c_str(), paper_best);
  }
}

struct Experiment {
  const char* name;
  const char* title;
  const char* description;
  std::vector<Cell> cells;
  void (*summary)(const std::vector<Row>&);  // may be null
  const char* footer;
};

std::vector<Experiment> Experiments() {
  const std::vector<std::string> both = {"Ciao", "Epinions"};
  return {
      {"table3", "Table III", "statistics of datasets", {}, nullptr,
       "The generator preserves per-user rates (trust out-degree,\n"
       "purchases/user); absolute counts scale with --scale. Sparsity rises\n"
       "as 1/scale because density = degree / users."},
      {"table4", "Table IV",
       "performance comparisons with different training sets",
       Grid(both,
            {"GAT", "SGC", "Guardian", "AtNE-Trust", "KGTrust", "UniGCN",
             "UniGAT", "HGNN+", "AHNTP"},
            {{"train", {"0.50", "0.60", "0.70", "0.80"}}}),
       PrintImprovement, nullptr},
      {"ablation", "Table V / Fig. 7-8", "ablation study of model variants",
       Grid(both, {"AHNTP", "AHNTP-nompr", "AHNTP-noatt", "AHNTP-nocon"}),
       PrintAhead,
       "Expected shape (paper): full AHNTP beats every ablation; removing\n"
       "the adaptive attention (noatt) hurts most, then the contrastive\n"
       "loss (nocon), then MPR (nompr)."},
      {"table6", "Table VI", "multi-hop experiments on two datasets",
       Grid(both, {"HGNN+", "AHNTP"},
            {{"width", {"small", "big"}}, {"hop", {"1", "2", "3"}}}),
       nullptr,
       "width=big is --dims and width=small halves each width (the paper's\n"
       "256-128-64 and 64-32-16). Expected shape (paper): at the larger\n"
       "width, 1 hop wins and 3 hops dilute the signal; at the smaller\n"
       "width, 2 hops can edge out 1."},
      {"depth", "Fig. 9-10", "performance vs number of conv layers",
       Grid(both, {"AHNTP"}, {{"layers", {"1", "2", "3", "4", "5"}}}),
       [](const std::vector<Row>& rows) { PrintBest(rows, "layers", "3"); },
       "Widths halve from --dims' first, clamped at its last. Expected shape\n"
       "(paper): a peak at 3 layers, then an over-smoothing decline."},
      {"alpha", "Fig. 11/13", "performance with different alpha (MPR blend)",
       Grid(both, {"AHNTP"},
            {{"alpha", {"0.40", "0.50", "0.60", "0.70", "0.80", "0.90"}}}),
       [](const std::vector<Row>& rows) { PrintBest(rows, "alpha", "0.80"); },
       "Expected shape (paper): performance peaks near alpha=0.8 —\n"
       "blending pairwise and motif structure beats either extreme."},
      {"temperature", "Fig. 12/14",
       "contrastive learning with different temperature t",
       Grid(both, {"AHNTP"},
            {{"t", {"0.10", "0.20", "0.30", "0.40", "0.50"}}}),
       [](const std::vector<Row>& rows) { PrintBest(rows, "t", "0.30"); },
       "Expected shape (paper): t = 0.3 is best; smaller over-sharpens and\n"
       "larger over-smooths the pair distribution."},
      {"protocol", "Protocol ablation",
       "negative sampling & split design choices (DESIGN.md; Ciao only)",
       Concat({Grid({"Ciao"}, {"SGC", "AHNTP"},
                    {{"hard", {"0.0", "0.5", "1.0"}}}),
               Grid({"Ciao"}, {"AHNTP"}, {{"neg/pos", {"1", "2", "4"}}}),
               Grid({"Ciao"}, {"AHNTP"},
                    {{"split", {"random", "temporal"}}}),
               Grid({"Ciao"}, {"AHNTP"}, {{"heads", {"1", "2", "4"}}})}),
       nullptr,
       "Expected: higher hard-negative fractions depress every model but\n"
       "high-order models degrade less; the paper's 2 negatives per positive\n"
       "(Section V-A.4) is a reasonable operating point; forecasting future\n"
       "trust (temporal split) is harder than random-split completion; extra\n"
       "attention heads (the paper uses 1) are roughly neutral at this scale."},
      {"related_work", "Related work",
       "propagation vs matrix vs (hyper)graph categories",
       Grid(both, {"CommonNeighbors", "Jaccard", "AdamicAdar", "Katz",
                   "Propagation", "MF", "SGC", "Guardian", "HGNN+", "AHNTP"}),
       nullptr,
       "Categories (paper Section II): propagation = CommonNeighbors ..\n"
       "Propagation, matrix = MF, graph-nn = SGC, Guardian, hypergraph =\n"
       "HGNN+, AHNTP. Expected shape: learned structural models beat pure\n"
       "path heuristics and feature-free factorization; hypergraph models\n"
       "top the learned family."},
  };
}

std::string MetricJson(const char* name, const core::MetricSummary& summary) {
  return StrFormat("\"%s\": {\"mean\": %.17g, \"std\": %.17g}", name,
                   summary.mean, summary.stddev);
}

/// One BENCH_paper.json record, on one line.
std::string RowJson(const Row& row, uint64_t base_seed) {
  std::vector<std::string> overrides, runs;
  for (const auto& [key, value] : row.cell.overrides) {
    overrides.push_back(
        StrFormat("\"%s\": \"%s\"", key.c_str(), value.c_str()));
  }
  for (size_t i = 0; i < row.result.runs.size(); ++i) {
    const core::ExperimentResult& run = row.result.runs[i];
    runs.push_back(StrFormat(
        "{\"seed\": %llu, \"accuracy\": %.17g, \"f1\": %.17g, \"auc\": %.17g, "
        "\"precision\": %.17g, \"recall\": %.17g, \"threshold\": %.9g, "
        "\"best_epoch\": %d}",
        static_cast<unsigned long long>(base_seed + i), run.test.accuracy,
        run.test.f1, run.test.auc, run.test.precision, run.test.recall,
        static_cast<double>(run.threshold), run.best_epoch));
  }
  std::string paper = "null";
  if (row.paper != nullptr) {
    paper = StrFormat("{\"accuracy\": %.2f, \"f1\": %.2f}", row.paper->acc,
                      row.paper->f1);
  }
  return StrFormat(
      "{\"experiment\": \"%s\", \"dataset\": \"%s\", \"model\": \"%s\", "
      "\"overrides\": {%s}, \"runs\": [%s], %s, %s, %s, \"paper\": %s, "
      "\"train_seconds\": %.3f}",
      row.experiment, row.cell.dataset.c_str(), row.cell.model.c_str(),
      StrJoin(overrides, ", ").c_str(), StrJoin(runs, ", ").c_str(),
      MetricJson("accuracy", row.result.accuracy).c_str(),
      MetricJson("f1", row.result.f1).c_str(),
      MetricJson("auc", row.result.auc).c_str(), paper.c_str(),
      row.result.total_train_seconds);
}

/// Table III: generated statistics next to the paper's.
std::vector<std::string> PrintDatasetStatistics(
    const std::vector<std::pair<std::string, data::SocialDataset>>& datasets) {
  std::printf("%-9s %-10s | %10s %10s %12s %10s %10s\n", "dataset", "source",
              "users", "items", "purchases", "trust", "sparsity%");
  std::vector<std::string> json;
  for (const auto& [name, dataset] : datasets) {
    for (const PaperDataset& paper : kPaperDatasets) {
      if (name != paper.dataset) continue;
      std::printf("%-9s %-10s | %10ld %10ld %12ld %10ld %10.5f\n",
                  paper.dataset, "paper", paper.users, paper.items,
                  paper.purchases, paper.trust, paper.sparsity_percent);
    }
    data::DatasetStatistics stats = data::ComputeStatistics(dataset);
    std::printf("%-9s %-10s | %10zu %10zu %12zu %10zu %10.5f\n", name.c_str(),
                "generated", stats.num_users, stats.num_items,
                stats.num_purchases, stats.num_trust_relations,
                stats.trust_density * 100.0);
    std::printf("%-9s %-10s | avg out-degree %.2f, reciprocity %.2f\n", "",
                "  extras", stats.avg_out_degree, stats.reciprocity);
    json.push_back(StrFormat(
        "{\"dataset\": \"%s\", \"users\": %zu, \"items\": %zu, "
        "\"purchases\": %zu, \"trust\": %zu, \"sparsity_percent\": %.17g}",
        name.c_str(), stats.num_users, stats.num_items, stats.num_purchases,
        stats.num_trust_relations, stats.trust_density * 100.0));
  }
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  AHNTP_CHECK_OK(flags.Parse(argc, argv));
  bench::BenchOptions options = bench::BenchOptions::FromFlags(flags);
  const std::string only = flags.GetString("experiment", "");
  const std::vector<std::string> models = flags.GetStringList("models", {});
  std::vector<Experiment> experiments = Experiments();
  if (!only.empty()) {
    std::vector<std::string> names;
    for (const Experiment& e : experiments) names.push_back(e.name);
    std::erase_if(experiments,
                  [&](const Experiment& e) { return only != e.name; });
    AHNTP_CHECK(!experiments.empty())
        << "--experiment=" << only << " is none of " << StrJoin(names, ", ");
  }
  bench::PrintBanner("paper", "the paper's tables and figures", options);

  // Ciao first, matching the paper's table ordering.
  std::vector<std::pair<std::string, data::SocialDataset>> datasets;
  if (options.include_ciao) {
    datasets.emplace_back(
        "Ciao", data::SocialNetworkGenerator(
                    data::GeneratorConfig::CiaoLike(options.scale))
                    .Generate());
  }
  if (options.include_epinions) {
    datasets.emplace_back(
        "Epinions", data::SocialNetworkGenerator(
                        data::GeneratorConfig::EpinionsLike(options.scale))
                        .Generate());
  }

  std::vector<std::string> statistics_json, cells_json;
  for (const Experiment& experiment : experiments) {
    std::printf("\n### %s — %s (--experiment=%s)\n", experiment.title,
                experiment.description, experiment.name);
    if (std::string(experiment.name) == "table3") {
      statistics_json = PrintDatasetStatistics(datasets);
    }
    std::vector<Row> rows;
    for (const auto& [name, dataset] : datasets) {
      for (const Cell& cell : experiment.cells) {
        if (cell.dataset != name ||
            (!models.empty() && std::find(models.begin(), models.end(),
                                          cell.model) == models.end())) {
          continue;
        }
        rows.push_back(RunCell(experiment.name, cell, dataset, options));
        PrintRow(rows.back(),
                 rows.size() > 1 ? &rows[rows.size() - 2] : nullptr);
        cells_json.push_back(RowJson(rows.back(), options.seed));
      }
    }
    if (experiment.summary != nullptr) experiment.summary(rows);
    if (experiment.footer != nullptr) std::printf("%s\n", experiment.footer);
  }

  std::vector<std::string> dims;
  for (size_t d : options.dims) dims.push_back(std::to_string(d));
  std::string json = StrFormat(
      "{\n  \"bench\": \"paper\",\n  \"schema_version\": 1,\n"
      "  \"scale\": %.4f,\n  \"epochs\": %d,\n  \"seed\": %llu,\n"
      "  \"seeds\": %d,\n  \"dims\": \"%s\",\n  \"datasets\": [",
      options.scale, options.epochs,
      static_cast<unsigned long long>(options.seed), options.num_seeds,
      StrJoin(dims, "-").c_str());
  json += StrJoin(statistics_json, ", ") + "],\n  \"cells\": [\n";
  for (size_t i = 0; i < cells_json.size(); ++i) {
    json += "    " + cells_json[i] + (i + 1 < cells_json.size() ? ",\n" : "\n");
  }
  json += "  ]\n}\n";
  AHNTP_CHECK_OK(WriteFileAtomic("BENCH_paper.json", json));
  std::printf("wrote BENCH_paper.json (%zu cells)\n", cells_json.size());
  return 0;
}
