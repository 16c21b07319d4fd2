#pragma once

// The paper's §VI figures and this repo's ablations as one table of
// definitions, measured by one loop and printed by one printer
// (`m2bench --figure NAME`; the `paper` tests assert on the grids).

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "harness/experiment.hpp"
#include "workload/synthetic.hpp"
#include "workload/tpcc.hpp"

namespace m2::bench {

/// True when the environment sets M2_BENCH_QUICK=1: the figures shrink
/// their sweeps and windows, and the micro benches their event counts, for
/// smoke runs. The one place the variable is read.
bool quick_mode();

/// One point of a figure: an experiment and its workload, measured by one
/// run_experiment when `levels` is empty, else by find_max_throughput over
/// those in-flight levels.
struct Cell {
  harness::ExperimentConfig cfg;
  std::variant<wl::SyntheticConfig, wl::TpccConfig> workload;
  std::vector<int> levels;
};

using Row = std::vector<std::string>;

/// One printed table of a figure: rows x series of cells.
struct Panel {
  std::string title;
  Row rows;
  Row series;
  /// Each cell's run (for a saturation search, its best level's), as
  /// [row][series]; empty until run_figure measures the panel.
  std::vector<std::vector<harness::ExperimentResult>> runs = {};
};
using Grid = std::vector<Panel>;

/// A figure: its sweep, the Cell each point maps to, and how it prints.
struct Figure {
  Row header;  // the row-label column's, then one per printed column
  Grid sweep;
  std::function<Cell(std::size_t panel, std::size_t row, std::size_t series)>
      cell;
  /// A row's printed columns after its label; when unset, each run's
  /// throughput.
  std::function<Row(const std::vector<harness::ExperimentResult>& runs,
                    std::size_t row)>
      row = {};
  /// Text printed before and after each panel's table, then after the
  /// last one; `claim`, the statement being reproduced, closes the output.
  std::function<std::string(const Grid&, std::size_t panel)> before = {},
                                                              after = {};
  std::function<std::string(const Grid&)> summary = {};
  std::string claim = {};
};

/// The figure names, in order: fig1..fig8, then the ablations a1..a5.
std::vector<std::string> figure_names();

/// Figure `name` at the full or the quick scale; nullopt for an unknown
/// name.
std::optional<Figure> find_figure(const std::string& name, bool quick);

/// Measures every cell of `f.sweep`, panel by panel, row by row.
Grid run_figure(const Figure& f);

/// Prints a grid run_figure(f) returned as f's tables and text lines.
void print_figure(const Figure& f, const Grid& grid, std::ostream& os);

}  // namespace m2::bench
