#include "ks/streaming.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "util/logging.h"
#include "util/string_util.h"

namespace moche {

namespace {
constexpr int64_t kNegInf = std::numeric_limits<int64_t>::min() / 4;
constexpr int64_t kPosInf = std::numeric_limits<int64_t>::max() / 4;
}  // namespace

// One observation. All nodes with equal key carry equal scores s, so the
// order among duplicates is immaterial.
struct StreamingKs::Node {
  double key = 0.0;
  bool is_ref = false;
  uint64_t pri = 0;
  int64_t s = 0;      // m * C_R(key) - n * C_W(key)
  int64_t lazy = 0;   // pending addition to s of the whole subtree
  int64_t smax = 0;   // subtree max of s (after lazy)
  int64_t smin = 0;
  int64_t cnt_r = 0;  // subtree count of reference nodes
  int64_t cnt_t = 0;  // subtree count of test (window) nodes
  Node* l = nullptr;
  Node* r = nullptr;
};

class StreamingKs::Treap {
 public:
  ~Treap() {
    Free(root_);
    while (free_list_ != nullptr) {
      Node* next = free_list_->l;
      delete free_list_;
      free_list_ = next;
    }
  }

  int64_t CountRefLE(double key) const { return CountLE(key).first; }
  int64_t CountTestLE(double key) const { return CountLE(key).second; }

  // Inserts a node with score `s`, shifting the scores of every node with
  // key >= `key` by `suffix_delta` first.
  void Insert(double key, bool is_ref, int64_t suffix_delta,
              int64_t self_score) {
    Node* less = nullptr;
    Node* geq = nullptr;
    SplitLT(root_, key, &less, &geq);
    AddLazy(geq, suffix_delta);
    Node* node = Acquire();
    node->key = key;
    node->is_ref = is_ref;
    node->pri = rng_();
    node->s = self_score;
    Pull(node);
    root_ = Merge(Merge(less, node), geq);
  }

  // Removes one test-tagged node with the given key (which must exist) and
  // shifts the scores of the remaining nodes with key >= `key` by
  // `suffix_delta`.
  void EraseTest(double key, int64_t suffix_delta) {
    Node* less = nullptr;
    Node* rest = nullptr;
    Node* equal = nullptr;
    Node* greater = nullptr;
    SplitLT(root_, key, &less, &rest);
    SplitLE(rest, key, &equal, &greater);
    MOCHE_CHECK(equal != nullptr && equal->cnt_t > 0);
    equal = RemoveOneTest(equal, this);
    AddLazy(equal, suffix_delta);
    AddLazy(greater, suffix_delta);
    root_ = Merge(Merge(less, equal), greater);
  }

  int64_t MaxAbsScore() const {
    if (root_ == nullptr) return 0;
    return std::max(std::abs(ScoreMax(root_)), std::abs(ScoreMin(root_)));
  }

 private:
  static int64_t ScoreMax(const Node* n) { return n->smax + n->lazy; }
  static int64_t ScoreMin(const Node* n) { return n->smin + n->lazy; }

  static void AddLazy(Node* n, int64_t delta) {
    if (n != nullptr) n->lazy += delta;
  }

  static void PushDown(Node* n) {
    if (n->lazy != 0) {
      n->s += n->lazy;
      n->smax += n->lazy;
      n->smin += n->lazy;
      AddLazy(n->l, n->lazy);
      AddLazy(n->r, n->lazy);
      n->lazy = 0;
    }
  }

  static void Pull(Node* n) {
    n->cnt_r = (n->is_ref ? 1 : 0);
    n->cnt_t = (n->is_ref ? 0 : 1);
    n->smax = n->s;
    n->smin = n->s;
    if (n->l != nullptr) {
      n->cnt_r += n->l->cnt_r;
      n->cnt_t += n->l->cnt_t;
      n->smax = std::max(n->smax, ScoreMax(n->l));
      n->smin = std::min(n->smin, ScoreMin(n->l));
    }
    if (n->r != nullptr) {
      n->cnt_r += n->r->cnt_r;
      n->cnt_t += n->r->cnt_t;
      n->smax = std::max(n->smax, ScoreMax(n->r));
      n->smin = std::min(n->smin, ScoreMin(n->r));
    }
  }

  // (keys < key, keys >= key)
  static void SplitLT(Node* n, double key, Node** less, Node** geq) {
    if (n == nullptr) {
      *less = nullptr;
      *geq = nullptr;
      return;
    }
    PushDown(n);
    if (n->key < key) {
      SplitLT(n->r, key, &n->r, geq);
      Pull(n);
      *less = n;
    } else {
      SplitLT(n->l, key, less, &n->l);
      Pull(n);
      *geq = n;
    }
  }

  // (keys <= key, keys > key)
  static void SplitLE(Node* n, double key, Node** leq, Node** greater) {
    if (n == nullptr) {
      *leq = nullptr;
      *greater = nullptr;
      return;
    }
    PushDown(n);
    if (n->key <= key) {
      SplitLE(n->r, key, &n->r, greater);
      Pull(n);
      *leq = n;
    } else {
      SplitLE(n->l, key, leq, &n->l);
      Pull(n);
      *greater = n;
    }
  }

  static Node* Merge(Node* a, Node* b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    if (a->pri < b->pri) {
      PushDown(a);
      a->r = Merge(a->r, b);
      Pull(a);
      return a;
    }
    PushDown(b);
    b->l = Merge(a, b->l);
    Pull(b);
    return b;
  }

  // One node, recycled from the free list when possible: the steady state
  // (one eviction per insertion) runs entirely off recycled nodes, so a
  // full window pushes with zero heap traffic.
  Node* Acquire() {
    if (free_list_ == nullptr) return new Node;
    Node* node = free_list_;
    free_list_ = node->l;
    *node = Node{};
    return node;
  }

  void Recycle(Node* n) {
    n->l = free_list_;
    free_list_ = n;
  }

  // Deletes one test-tagged node from the (all-equal-key) subtree.
  static Node* RemoveOneTest(Node* n, Treap* treap) {
    MOCHE_CHECK(n != nullptr);
    PushDown(n);
    if (!n->is_ref) {
      Node* merged = Merge(n->l, n->r);
      treap->Recycle(n);
      return merged;
    }
    if (n->l != nullptr && n->l->cnt_t > 0) {
      n->l = RemoveOneTest(n->l, treap);
    } else {
      MOCHE_CHECK(n->r != nullptr && n->r->cnt_t > 0);
      n->r = RemoveOneTest(n->r, treap);
    }
    Pull(n);
    return n;
  }

  // (#ref <= key, #test <= key) by treap descent.
  std::pair<int64_t, int64_t> CountLE(double key) const {
    int64_t ref = 0;
    int64_t test = 0;
    const Node* n = root_;
    while (n != nullptr) {
      if (n->key <= key) {
        ref += (n->is_ref ? 1 : 0) + (n->l != nullptr ? n->l->cnt_r : 0);
        test += (n->is_ref ? 0 : 1) + (n->l != nullptr ? n->l->cnt_t : 0);
        n = n->r;
      } else {
        n = n->l;
      }
    }
    return {ref, test};
  }

  static void Free(Node* n) {
    if (n == nullptr) return;
    Free(n->l);
    Free(n->r);
    delete n;
  }

  Node* root_ = nullptr;
  Node* free_list_ = nullptr;  // chained through Node::l
  std::mt19937_64 rng_{0x5EED5EED5EED5EEDull};
};

StreamingKs::StreamingKs(size_t n, size_t window_size, double alpha)
    : n_(n),
      window_size_(window_size),
      alpha_(alpha),
      window_(window_size, 0.0),  // ring storage, allocated once
      treap_(std::make_unique<Treap>()) {}

StreamingKs::StreamingKs(StreamingKs&&) noexcept = default;
StreamingKs& StreamingKs::operator=(StreamingKs&&) noexcept = default;
StreamingKs::~StreamingKs() = default;

Result<StreamingKs> StreamingKs::Create(const std::vector<double>& reference,
                                        size_t window_size, double alpha) {
  MOCHE_RETURN_IF_ERROR(ks::ValidateSample(reference, "reference set"));
  if (window_size == 0) {
    return Status::InvalidArgument("window size must be positive");
  }
  MOCHE_RETURN_IF_ERROR(ks::ValidateAlpha(alpha));
  StreamingKs stream(reference.size(), window_size, alpha);
  const int64_t m = static_cast<int64_t>(window_size);
  for (double v : reference) {
    // Reference insertion bumps C_R on the suffix: s += m for key >= v.
    // The new node's own score: s = m * C_R(v) - n * C_W(v), with counts
    // taken after the insertion.
    const int64_t c_r = stream.treap_->CountRefLE(v) + 1;
    const int64_t c_w = stream.treap_->CountTestLE(v);
    stream.treap_->Insert(v, /*is_ref=*/true, /*suffix_delta=*/m,
                          m * c_r - static_cast<int64_t>(stream.n_) * c_w);
  }
  return stream;
}

void StreamingKs::InsertTestValue(double value) {
  const int64_t n = static_cast<int64_t>(n_);
  const int64_t m = static_cast<int64_t>(window_size_);
  const int64_t c_r = treap_->CountRefLE(value);
  const int64_t c_w = treap_->CountTestLE(value) + 1;
  treap_->Insert(value, /*is_ref=*/false, /*suffix_delta=*/-n,
                 m * c_r - n * c_w);
}

void StreamingKs::EraseTestValue(double value) {
  treap_->EraseTest(value, /*suffix_delta=*/static_cast<int64_t>(n_));
}

Status StreamingKs::Push(double value) {
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("observation is not finite");
  }
  if (window_count_ == window_size_) {
    EraseTestValue(window_[window_head_]);
    window_head_ = (window_head_ + 1) % window_size_;
    --window_count_;
  }
  InsertTestValue(value);
  window_[(window_head_ + window_count_) % window_size_] = value;
  ++window_count_;
  return Status::OK();
}

void StreamingKs::SerializeStateTo(std::string* out) const {
  bin::AppendU64Le(static_cast<uint64_t>(n_), out);
  bin::AppendU64Le(static_cast<uint64_t>(window_size_), out);
  bin::AppendDoubleLe(alpha_, out);
  bin::AppendU64Le(static_cast<uint64_t>(window_count_), out);
  for (size_t i = 0; i < window_count_; ++i) {
    bin::AppendDoubleLe(window_[(window_head_ + i) % window_size_], out);
  }
}

Result<StreamingKs> StreamingKs::DeserializeState(
    const std::vector<double>& reference, bin::Reader* reader) {
  uint64_t n = 0;
  uint64_t window_size = 0;
  double alpha = 0.0;
  uint64_t window_count = 0;
  if (!reader->ReadU64Le(&n) || !reader->ReadU64Le(&window_size) ||
      !reader->ReadDoubleLe(&alpha) || !reader->ReadU64Le(&window_count)) {
    return Status::InvalidArgument(
        "streaming detector: snapshot truncated in the state header");
  }
  if (n != reference.size()) {
    return Status::InvalidArgument(
        StrFormat("streaming detector: snapshot was taken over a reference "
                  "of %llu values, restore got %zu",
                  static_cast<unsigned long long>(n), reference.size()));
  }
  if (window_count > window_size) {
    return Status::InvalidArgument(StrFormat(
        "streaming detector: snapshot window holds %llu of %llu values",
        static_cast<unsigned long long>(window_count),
        static_cast<unsigned long long>(window_size)));
  }
  if (window_count > reader->remaining() / 8) {
    return Status::InvalidArgument(
        "streaming detector: snapshot truncated inside the window ring");
  }
  // Create re-validates the reference sample, window size, and alpha, then
  // replaying the ring in arrival order rebuilds the treap (scores are a
  // pure function of the multisets; priorities only shape the tree).
  MOCHE_ASSIGN_OR_RETURN(
      StreamingKs stream,
      Create(reference, static_cast<size_t>(window_size), alpha));
  for (uint64_t i = 0; i < window_count; ++i) {
    double value = 0.0;
    reader->ReadDoubleLe(&value);  // bounded above; cannot fail
    MOCHE_RETURN_IF_ERROR(stream.Push(value));
  }
  return stream;
}

std::vector<double> StreamingKs::WindowContents() const {
  std::vector<double> out;
  WindowContentsInto(&out);
  return out;
}

void StreamingKs::WindowContentsInto(std::vector<double>* out) const {
  out->clear();
  out->reserve(window_count_);
  for (size_t i = 0; i < window_count_; ++i) {
    out->push_back(window_[(window_head_ + i) % window_size_]);
  }
}

Result<KsOutcome> StreamingKs::CurrentOutcome() const {
  if (!WindowFull()) {
    return Status::InvalidArgument(
        StrFormat("window holds %zu of %zu observations", window_count_,
                  window_size_));
  }
  const double statistic =
      static_cast<double>(treap_->MaxAbsScore()) /
      (static_cast<double>(n_) * static_cast<double>(window_size_));
  // alpha / sizes were validated by StreamingKs::Create.
  return ks::internal::DecideUnchecked(statistic, n_, window_size_, alpha_);
}

bool StreamingKs::Drifted() const {
  if (!WindowFull()) return false;
  auto outcome = CurrentOutcome();
  return outcome.ok() && outcome->reject;
}

}  // namespace moche
