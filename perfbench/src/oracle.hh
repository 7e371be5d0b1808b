// Output oracle: every reconstruction, ROI box and served response the
// benchmark receives is checked here, and any failure counts against the
// run's error rate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/compressor_iface.hh"
#include "device/dims.hh"

namespace perfbench::oracle {

/// max - min over the finite values of `data` (0 when none is finite) — the
/// value range a Rel bound is relative to.
[[nodiscard]] double finite_range(std::span<const float> data);

/// Number of elements that violate the error bound `eb`. Unlike a max-error
/// reduction, this cannot be fooled by NaN: a finite original needs a finite
/// reconstruction within eb, and a non-finite original needs a bit-identical
/// reconstruction. A size mismatch counts every element as a violation.
[[nodiscard]] std::size_t count_exceedances(std::span<const float> original,
                                            std::span<const float> recon,
                                            double eb);

/// Byte equality of two arrays (sizes included).
template <typename T>
[[nodiscard]] bool same_bytes(std::span<const T> a, std::span<const T> b);

/// True when `box_data` is bit-identical to the `box` crop of `full`.
[[nodiscard]] bool crop_matches(std::span<const float> full,
                                const szi::dev::Dim3& dims,
                                const szi::RoiBox& box,
                                std::span<const float> box_data);

/// 64-bit FNV-1a-style hash, 8 bytes per step (archive/recon fingerprints
/// compared across worker counts).
[[nodiscard]] std::uint64_t hash_bytes(const void* p, std::size_t n);

/// Planted-fault checks of the functions above; returns the number of
/// failed checks and prints each one.
[[nodiscard]] int self_test();

}  // namespace perfbench::oracle
