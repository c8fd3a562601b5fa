// Client access seam for the coordinator: how the FL loop reaches client k.
//
// The materialized world (FeiSystem, a non-virtual fleet) owns a
// std::vector<Client> and hands the coordinator a DenseClientPool view of
// it.  The fleet engine's virtual mode runs populations (N = 1M) whose
// Client objects — small as they are — would still cost hundreds of MB up
// front, yet only K·T of them are ever selected across a whole run.  A
// Client is an immutable value (id, shard pointer, config) whose
// construction draws no randomness, so LazyClientPool builds one on each
// access from the same recipe Population::build uses: a built client is
// indistinguishable from a stored one, and training results cannot depend
// on which pool backs the coordinator.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "fl/client.h"

namespace eefei::fl {

/// Abstract client access: size of the population and client `id`, by
/// value, with `client(id).id() == id`.  `client()` must be safe to call
/// concurrently.
class ClientPool {
 public:
  virtual ~ClientPool() = default;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual Client client(ClientId id) const = 0;
  [[nodiscard]] bool empty() const { return size() == 0; }
};

/// The materialized case: a view over an existing vector<Client> (owned by
/// Population or a test).
class DenseClientPool final : public ClientPool {
 public:
  explicit DenseClientPool(const std::vector<Client>* clients)
      : clients_(clients) {}

  [[nodiscard]] std::size_t size() const override { return clients_->size(); }
  [[nodiscard]] Client client(ClientId id) const override {
    return (*clients_)[id];
  }

 private:
  const std::vector<Client>* clients_;
};

/// The virtual-population case: client k is built on access from the
/// shared shard array (server k trains shard k mod P, exactly like
/// Population::build wires it).  The pool holds no per-client state, so
/// its memory does not grow with the clients a run selects.
class LazyClientPool final : public ClientPool {
 public:
  /// `shards` must outlive the pool.  Client k gets shards[k % shards.size()].
  LazyClientPool(std::size_t num_clients,
                 const std::vector<data::Shard>* shards, ClientConfig config)
      : num_clients_(num_clients), shards_(shards), config_(config) {}

  [[nodiscard]] std::size_t size() const override { return num_clients_; }
  [[nodiscard]] Client client(ClientId id) const override {
    assert(id < num_clients_);
    return Client(id, &(*shards_)[id % shards_->size()], config_);
  }

 private:
  std::size_t num_clients_;
  const std::vector<data::Shard>* shards_;
  ClientConfig config_;
};

}  // namespace eefei::fl
