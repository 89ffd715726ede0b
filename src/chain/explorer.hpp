// Explorer: the etherscan.io stand-in.
//
// Provides the two services PhishingHook's data-gathering phase consumes
// (paper Fig. 1-2/3):
//   * a label service that flags contracts as "Phish/Hack" (the scrape step
//     over the 4M candidate hashes), and
//   * the JSON-RPC `eth_getCode` endpoint used by the Bytecode Extraction
//     Module (BEM) to pull deployed bytecode.
//
// The real Etherscan is an *independent* validation source; here labels are
// assigned by whoever populates the corpus (the synthetic generator knows
// ground truth), but the pipeline only ever observes them through this
// scrape interface, preserving the paper's data flow.
#pragma once

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "chain/chain_store.hpp"

namespace phishinghook::chain {

/// Flag taxonomy, mirroring the etherscan labels the paper relies on.
enum class ContractFlag {
  kNone,       ///< not flagged — treated as benign in the dataset
  kPhishHack,  ///< the "Phish/Hack" label used for the positive class
};

/// One incremental-crawl snapshot: every deployment past a cursor plus the
/// head observed in the same read. The pairing matters for streaming —
/// ingest lag (head minus cursor) is only meaningful if both numbers come
/// from one consistent view of the chain (stream::LiveChain's synchronized
/// explorer takes its lock around exactly this pair).
struct ChainTail {
  std::vector<ContractRecord> records;  ///< block_number > cursor, chain order
  std::uint64_t head_block = 0;         ///< head at snapshot time
};

/// Whether a read may wait for a lock the chain's writer holds.
enum class ReadMode {
  kWait,  ///< block until the read can run
  kTry,   ///< never block: report "busy" (nullopt) instead
};

/// The read path (eth_get_code / get_code / stored_code / flag_of / crawl)
/// is virtual so decorators — FaultInjectingExplorer in fault_injection.hpp
/// is the one shipped here — can interpose on exactly what a flaky upstream
/// node would degrade, while consumers (the BEM, the scoring engine) stay
/// written against plain `const Explorer&`. The label *write* path stays
/// non-virtual: decorators wrap a corpus that is already populated.
class Explorer {
 public:
  explicit Explorer(const ChainStore& chain) : chain_(&chain) {}
  virtual ~Explorer() = default;

  /// JSON-RPC eth_getCode: the deployed bytecode as "0x..." hex.
  /// Unknown accounts return "0x" like a real node.
  virtual std::string eth_get_code(const Address& address) const;

  /// The same, decoded — the BEM's working form.
  virtual Bytecode get_code(const Address& address) const;

  /// The account's stored code hash and the chain's shared copy of its
  /// code, read together under one lock, so the hash always belongs to
  /// the bytes. Unknown accounts read as empty code. nullopt only in
  /// ReadMode::kTry, when the read would have had to wait.
  ///
  /// An Explorer over the chain reads the account in place: no copy and
  /// no hashing. A subclass that does not override this inherits a version
  /// that reads through the subclass's own get_code (and hashes what it
  /// returns), so a decorator that interposes only on get_code still sees
  /// every code read and takes whatever lock its get_code takes. Since
  /// that get_code may block, the inherited version answers every kTry
  /// read with nullopt: such a decorator's reads all happen in kWait.
  virtual std::optional<StoredCode> stored_code(
      const Address& address, ReadMode mode = ReadMode::kWait) const;

  /// Label-service write path (exercised by corpus generation).
  void flag(const Address& address, ContractFlag flag);

  /// Label-service read path (the scrape).
  virtual ContractFlag flag_of(const Address& address) const;
  bool is_flagged_phishing(const Address& address) const;

  /// Crawl: all contract addresses deployed in [from, to] months — the raw
  /// unlabeled hash list of the paper's data-gathering phase.
  virtual std::vector<Address> crawl(Month from, Month to) const;

  /// Incremental crawl: deployments strictly after `after_block` plus the
  /// chain head, the primitive the streaming BlockFollower tails. Like
  /// crawl(), decorators delegate this untouched — enumeration is journal
  /// metadata; only the code fetch is a faultable upstream surface.
  virtual ChainTail crawl_after(std::uint64_t after_block) const;

  /// Chain head at call time (streaming ingest-lag accounting).
  virtual std::uint64_t head_block() const { return chain_->head_block(); }

  virtual std::size_t flagged_count() const { return phishing_.size(); }

  /// The chain this explorer fronts (decorators re-anchor on it).
  const ChainStore& chain() const { return *chain_; }

 private:
  const ChainStore* chain_;
  // Hash set, not a tree: flag_of sits on the serving hot path (every
  // label scrape and dataset build probes it per address).
  std::unordered_set<Address> phishing_;
};

}  // namespace phishinghook::chain
