#include "synth/dataset_builder.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace phishinghook::synth {

using chain::ChainStore;
using chain::ContractFlag;
using chain::ContractRecord;
using chain::Explorer;

std::size_t BuiltDataset::phishing_count() const {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [](const LabeledContract& s) { return s.phishing; }));
}

std::size_t BuiltDataset::benign_count() const {
  return samples.size() - phishing_count();
}

DatasetBuilder::DatasetBuilder(DatasetConfig config) : config_(config) {}

const std::array<double, chain::Month::kCount>&
DatasetBuilder::monthly_profile() {
  // Shaped after the paper's Fig. 2: a modest tail end of 2023, a broad 2024
  // spring/summer peak, easing off toward October 2024.
  static const std::array<double, chain::Month::kCount> kProfile = {
      0.040, 0.050, 0.060, 0.070, 0.080, 0.090, 0.105,
      0.120, 0.110, 0.100, 0.080, 0.055, 0.040};
  return kProfile;
}

BuiltDataset DatasetBuilder::build() const {
  obs::ScopedSpan build_span("synth.build");
  common::Rng rng(config_.seed);
  const ContractSynthesizer synth(config_.synth);

  BuiltDataset out;
  out.chain = std::make_shared<ChainStore>();
  out.explorer = std::make_shared<Explorer>(*out.chain);
  ChainStore& chain = *out.chain;
  Explorer& explorer = *out.explorer;

  const std::size_t unique_target = config_.target_size / 2;
  const auto& profile = monthly_profile();

  // Track which generated deployments are phishing (ground truth the label
  // service publishes; the pipeline below only reads it back through the
  // explorer, never directly).
  struct FamilyTag {
    ContractFamily family;
  };
  std::map<Address, FamilyTag> family_of;

  // --- populate the chain, month by month ---------------------------------
  obs::ScopedSpan populate_span("synth.populate");
  for (int m = 0; m < chain::Month::kCount; ++m) {
    const Month month{m};
    chain.advance_to(month);

    // Phishing campaigns until this month's unique quota is met.
    const std::size_t month_unique_quota = std::max<std::size_t>(
        1, static_cast<std::size_t>(profile[m] * static_cast<double>(unique_target) + 0.5));
    std::size_t month_uniques = 0;
    while (month_uniques < month_unique_quota) {
      const Address owner = random_address(rng);
      const Address deployer = random_address(rng);
      const int clones = rng.geometric(
          1.0 - 1.0 / config_.duplicate_rate, /*cap=*/24);

      if (rng.bernoulli(0.4)) {
        // Proxy army: implementation + `clones` bit-identical ERC-1167
        // clones of it.
        const SynthContract impl = synth.phishing(month, rng, owner);
        const ContractRecord& impl_record =
            chain.register_contract(deployer, impl.runtime);
        explorer.flag(impl_record.address, ContractFlag::kPhishHack);
        family_of[impl_record.address] = {impl.family};
        month_uniques += 1;
        const SynthContract proxy =
            synth.minimal_proxy(impl_record.address, /*phishing=*/true);
        for (int c = 0; c < std::max(1, clones); ++c) {
          const ContractRecord& record =
              chain.register_contract(deployer, proxy.runtime);
          explorer.flag(record.address, ContractFlag::kPhishHack);
          family_of[record.address] = {ContractFamily::kMinimalProxy};
        }
        month_uniques += 1;  // the (deduped) proxy bytecode itself
      } else {
        // Verbatim redeploys of a single drainer.
        const SynthContract drainer = synth.phishing(month, rng, owner);
        for (int c = 0; c < 1 + clones; ++c) {
          const ContractRecord& record =
              chain.register_contract(deployer, drainer.runtime);
          explorer.flag(record.address, ContractFlag::kPhishHack);
          family_of[record.address] = {drainer.family};
        }
        month_uniques += 1;
      }
    }

    // Benign deployments: uniform across the window by default, temporally
    // matched for the Fig. 8 dataset. Slight oversampling leaves room for
    // the balancing step to choose.
    const double benign_fraction = config_.match_benign_temporal
                                       ? profile[m]
                                       : 1.0 / chain::Month::kCount;
    const std::size_t benign_quota = std::max<std::size_t>(
        2, static_cast<std::size_t>(1.6 * benign_fraction *
                                        static_cast<double>(unique_target) +
                                    0.5));
    for (std::size_t i = 0; i < benign_quota; ++i) {
      const SynthContract contract = synth.benign(month, rng);
      const Address deployer = random_address(rng);
      const ContractRecord& record =
          chain.register_contract(deployer, contract.runtime);
      family_of[record.address] = {contract.family};
      // A minority of benign deployments are proxy clones of legitimate
      // implementations — duplicates exist on both sides.
      if (rng.bernoulli(0.12)) {
        const SynthContract proxy =
            synth.minimal_proxy(record.address, /*phishing=*/false);
        const int benign_clones = 1 + rng.geometric(0.5, 6);
        for (int c = 0; c < benign_clones; ++c) {
          const ContractRecord& clone =
              chain.register_contract(deployer, proxy.runtime);
          family_of[clone.address] = {ContractFamily::kMinimalProxy};
        }
      }
    }
  }

  populate_span.end();

  // --- crawl + scrape + BEM + dedup (the paper's pipeline) -----------------
  obs::ScopedSpan dedup_span("synth.dedup");
  const std::vector<Address> all =
      explorer.crawl(Month{0}, Month{chain::Month::kCount - 1});

  std::map<std::string, LabeledContract> unique_phishing;
  std::map<std::string, LabeledContract> unique_benign;
  for (const Address& address : all) {
    const ContractRecord* record = chain.find(address);
    const bool phishing = explorer.is_flagged_phishing(address);
    if (phishing) {
      out.raw_phishing += 1;
      out.phishing_per_month[record->month.index] += 1;
    }
    // eth_getCode (BEM), with the code hash the chain stored at deployment.
    const chain::StoredCode stored = explorer.stored_code(address).value();
    const std::string key = evm::hash_to_hex(stored.hash);
    auto& bucket = phishing ? unique_phishing : unique_benign;
    if (bucket.contains(key)) continue;  // bit-by-bit duplicate
    LabeledContract sample;
    sample.code = *stored.code;
    sample.phishing = phishing;
    sample.month = record->month;
    sample.address = address;
    sample.family = family_of.at(address).family;
    bucket.emplace(key, std::move(sample));
  }
  out.unique_phishing = unique_phishing.size();
  dedup_span.end();

  // --- balance & shuffle -------------------------------------------------
  obs::ScopedSpan balance_span("synth.balance");
  std::vector<LabeledContract> phishing_samples;
  phishing_samples.reserve(unique_phishing.size());
  for (auto& [key, sample] : unique_phishing) {
    phishing_samples.push_back(std::move(sample));
  }
  std::vector<LabeledContract> benign_samples;
  benign_samples.reserve(unique_benign.size());
  for (auto& [key, sample] : unique_benign) {
    benign_samples.push_back(std::move(sample));
  }
  rng.shuffle(phishing_samples);
  rng.shuffle(benign_samples);

  const std::size_t per_class = std::min(
      {config_.target_size / 2, phishing_samples.size(), benign_samples.size()});
  out.samples.reserve(2 * per_class);
  for (std::size_t i = 0; i < per_class; ++i) {
    out.samples.push_back(std::move(phishing_samples[i]));
    out.samples.push_back(std::move(benign_samples[i]));
  }
  rng.shuffle(out.samples);
  balance_span.end();

  common::log_event(
      common::LogLevel::kInfo, "synth.build",
      {{"raw_phishing", out.raw_phishing},
       {"unique_phishing", out.unique_phishing},
       {"final_size", out.samples.size()}});
  return out;
}

TemporalSplit temporal_split(const std::vector<LabeledContract>& samples) {
  TemporalSplit split;
  for (const LabeledContract& sample : samples) {
    if (sample.month.index <= 3) {
      split.train.push_back(&sample);
    } else {
      split.monthly_tests[static_cast<std::size_t>(sample.month.index - 4)]
          .push_back(&sample);
    }
  }
  return split;
}

}  // namespace phishinghook::synth
