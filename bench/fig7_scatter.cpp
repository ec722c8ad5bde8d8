// Figure 7 reproduction: two-ramp model delay and slew vs "HSPICE" over the
// full inductive sweep.
//
// Sweep (paper Sec. 6): lengths 1-7 mm, widths 0.8-3.5 um, drivers 25X-125X,
// input slews 50-200 ps, parasitics from the fitted wire model.  Cases are
// screened with the Eq-9 criteria exactly as the flow prescribes; only the
// inductively-significant ones are simulated and plotted (the paper found
// 165 such cases).  Reported alongside the paper's headline statistics:
// average delay error 6 %, average slew error 11.1 %; delay 48 % < 5 % and
// 83 % < 10 %; slew 31 % < 5 % and 61 % < 10 %.
#include <cstdio>

#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/sweep.h"
#include "tech/wire.h"
#include "util/stats.h"

using namespace rlceff;
using namespace rlceff::units;

namespace {

// ASCII scatter of (x, y) pairs with the y = x diagonal.
void ascii_scatter(const std::vector<std::pair<double, double>>& pts, double lo,
                   double hi, const char* axis_label) {
  constexpr int w = 61;
  constexpr int h = 25;
  std::vector<std::string> canvas(h, std::string(w, ' '));
  auto to_x = [&](double v) {
    return static_cast<int>((v - lo) / (hi - lo) * (w - 1) + 0.5);
  };
  for (int x = 0; x < w; ++x) {
    const int y = static_cast<int>(static_cast<double>(x) / (w - 1) * (h - 1) + 0.5);
    canvas[static_cast<std::size_t>(h - 1 - y)][static_cast<std::size_t>(x)] = '.';
  }
  for (const auto& [rx, ry] : pts) {
    const int x = to_x(rx);
    const int y = static_cast<int>((ry - lo) / (hi - lo) * (h - 1) + 0.5);
    if (x < 0 || x >= w || y < 0 || y >= h) continue;
    canvas[static_cast<std::size_t>(h - 1 - y)][static_cast<std::size_t>(x)] = 'x';
  }
  std::printf("  model %s ^ (diagonal = perfect match)\n", axis_label);
  for (const auto& row : canvas) std::printf("  |%s\n", row.c_str());
  std::printf("  +%s> HSPICE %s, %.0f..%.0f ps\n", std::string(w, '-').c_str(),
              axis_label, lo / ps, hi / ps);
}

}  // namespace

int main() {
  std::printf("== Figure 7: two-ramp model vs HSPICE over the inductive sweep ==\n");
  const std::vector<double> sizes = {25, 50, 75, 100, 125};
  bench::warm_library(sizes);

  const std::vector<double> lengths_mm = {1, 2, 3, 4, 5, 6, 7};
  const std::vector<double> widths_um = {0.8, 1.2, 1.6, 2.0, 2.5, 3.0, 3.5};
  const std::vector<double> slews_ps = {50, 100, 150, 200};
  const tech::WireModel wires;

  const api::BatchOptions opt = bench::sweep_fidelity();

  // Phase 1: cheap screening with the model flow only (no simulation) —
  // model-only requests through the Engine batch path.
  std::vector<api::Request> screen;
  std::vector<bool> paper_region;  // the paper's "long, wide, fast" subset
  for (double l : lengths_mm) {
    for (double w : widths_um) {
      for (double size : sizes) {
        for (double slew : slews_ps) {
          api::Request r;
          char label[64];
          std::snprintf(label, sizeof label, "%gmm/%gum %gX %gps", l, w, size, slew);
          r.label = label;
          r.cell_size = size;
          r.input_slew = slew * ps;
          r.net = tech::line_net(wires.extract({l * mm, w * um}), 20 * ff);
          // The historical sweep uses the last Ceff iterate when a fixed
          // point does not converge; keep that semantics so the Fig-7
          // statistics stay comparable with earlier runs.
          r.require_convergence = false;
          screen.push_back(std::move(r));
          paper_region.push_back(l >= 3.0 && w >= 1.6 && size >= 75.0);
        }
      }
    }
  }
  const std::vector<api::Response> screened =
      bench::unwrap(bench::engine().run_batch(screen, opt));

  // Phase 2: simulate the inductively-significant cases.  Same requests,
  // now with the transient reference; the one-ramp baseline column costs no
  // extra simulation (model only) and feeds the BENCH_accuracy.json
  // trajectory.
  std::vector<api::Request> inductive;
  std::vector<bool> inductive_region;
  for (std::size_t k = 0; k < screen.size(); ++k) {
    if (screened[k].model.kind == core::ModelKind::one_ramp) continue;
    api::Request r = std::move(screen[k]);
    r.reference = true;
    r.far_end = false;
    r.one_ramp_baseline = true;
    inductive.push_back(std::move(r));
    inductive_region.push_back(paper_region[k]);
  }
  std::printf("screened %zu sweep points -> %zu inductively significant cases "
              "(paper: 165)\n",
              screen.size(), inductive.size());

  std::printf("# simulating %zu cases on %u threads\n", inductive.size(),
              sim::sweep_worker_count(inductive.size(), 0));
  std::fflush(stdout);
  const std::vector<api::Response> metrics =
      bench::unwrap(bench::engine().run_batch(inductive, opt));

  std::vector<std::pair<double, double>> delay_pts, slew_pts;
  std::vector<double> delay_errs, slew_errs;
  std::vector<double> one_delay_errs, one_slew_errs;
  std::vector<double> delay_errs_core, slew_errs_core;  // paper's sub-region
  for (std::size_t k = 0; k < inductive.size(); ++k) {
    const api::Response& m = metrics[k];
    delay_pts.emplace_back(m.ref_near.delay, m.model_near.delay);
    slew_pts.emplace_back(m.ref_near.slew, m.model_near.slew);
    delay_errs.push_back(core::pct_error(m.model_near.delay, m.ref_near.delay));
    slew_errs.push_back(core::pct_error(m.model_near.slew, m.ref_near.slew));
    one_delay_errs.push_back(core::pct_error(m.one_near.delay, m.ref_near.delay));
    one_slew_errs.push_back(core::pct_error(m.one_near.slew, m.ref_near.slew));
    if (inductive_region[k]) {
      delay_errs_core.push_back(delay_errs.back());
      slew_errs_core.push_back(slew_errs.back());
    }
  }

  bench::update_accuracy_json(
      "fig7", bench::two_model_error_metrics(delay_errs, slew_errs, one_delay_errs,
                                             one_slew_errs));
  std::printf("# accuracy metrics written to BENCH_accuracy.json (fig7.*)\n");

  std::printf("\ndelay scatter:\n");
  ascii_scatter(delay_pts, 0.0, 100 * ps, "delay");
  std::printf("\nslew scatter:\n");
  ascii_scatter(slew_pts, 0.0, 350 * ps, "slew");

  std::printf("\nstatistic                       measured    paper\n");
  std::printf("inductive cases                 %8zu      165\n", delay_errs.size());
  std::printf("avg |delay error|               %7.1f %%    6.0 %%\n",
              util::mean_abs(delay_errs));
  std::printf("avg |slew error|                %7.1f %%   11.1 %%\n",
              util::mean_abs(slew_errs));
  std::printf("delay cases under 5 %% error     %7.0f %%     48 %%\n",
              100.0 * util::fraction_below(delay_errs, 5.0));
  std::printf("delay cases under 10 %% error    %7.0f %%     83 %%\n",
              100.0 * util::fraction_below(delay_errs, 10.0));
  std::printf("slew cases under 5 %% error      %7.0f %%     31 %%\n",
              100.0 * util::fraction_below(slew_errs, 5.0));
  std::printf("slew cases under 10 %% error     %7.0f %%     61 %%\n",
              100.0 * util::fraction_below(slew_errs, 10.0));

  // Our Eq-9 screen admits more borderline cases than the paper's 165 (their
  // exact sweep grid and Rs extraction differ); restricting to the region
  // the paper highlights as inductive (>= 3 mm, >= 1.6 um, >= 75X) gives the
  // closest comparison.
  std::printf("\nrestricted to the paper's 'long, wide, fast' region:\n");
  std::printf("cases                           %8zu\n", delay_errs_core.size());
  std::printf("avg |delay error|               %7.1f %%    6.0 %%\n",
              util::mean_abs(delay_errs_core));
  std::printf("avg |slew error|                %7.1f %%   11.1 %%\n",
              util::mean_abs(slew_errs_core));
  std::printf("delay cases under 10 %% error    %7.0f %%     83 %%\n",
              100.0 * util::fraction_below(delay_errs_core, 10.0));
  std::printf("slew cases under 10 %% error     %7.0f %%     61 %%\n",
              100.0 * util::fraction_below(slew_errs_core, 10.0));
  return 0;
}
