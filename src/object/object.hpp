// Object identity and catalog types.
//
// The unit of data in the paper is an "object": an opaque datum with an
// integer size (in abstract data units) whose master copy lives on a remote
// server and whose possibly-stale copy lives in the base-station cache.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace mobi::object {

/// Index into the catalog; dense, 0-based.
using ObjectId = std::uint32_t;

/// Size in abstract data units (the paper's "units of data").
using Units = std::int64_t;

struct ObjectInfo {
  ObjectId id = 0;
  Units size = 1;
};

/// An immutable collection of objects. All other modules refer to objects
/// by ObjectId and use the catalog for sizes.
class Catalog {
 public:
  Catalog() = default;
  explicit Catalog(std::vector<Units> sizes);

  std::size_t size() const noexcept { return sizes_.size(); }
  bool empty() const noexcept { return sizes_.empty(); }
  Units object_size(ObjectId id) const {
    if (id >= sizes_.size()) throw std::out_of_range("Catalog::object_size");
    return sizes_[id];
  }
  Units total_size() const noexcept { return total_; }
  /// Size of the smallest object; 0 for an empty catalog.
  Units min_size() const noexcept { return min_; }
  ObjectInfo info(ObjectId id) const { return {id, object_size(id)}; }

  const std::vector<Units>& sizes() const noexcept { return sizes_; }

 private:
  std::vector<Units> sizes_;
  Units total_ = 0;
  Units min_ = 0;
};

}  // namespace mobi::object
