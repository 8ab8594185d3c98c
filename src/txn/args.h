/**
 * @file
 * Transaction-argument serialization.
 *
 * Clobber-NVM re-executes interrupted transactions, so a transaction's
 * inputs must survive the crash. The paper's v_log records the txfunc's
 * name, its arguments, and any volatile buffers announced with
 * vlog_preserve. Here, txn::run() serializes every argument — including
 * volatile byte buffers, passed as string_view/span — into a blob that
 * the Clobber runtime persists as the v_log entry; the txfunc reads its
 * arguments back out of that blob in both normal execution and recovery
 * re-execution, guaranteeing the two executions see identical inputs.
 */
#ifndef CNVM_TXN_ARGS_H
#define CNVM_TXN_ARGS_H

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace cnvm::txn {

class ArgWriter {
 public:
    template <typename T>
    void
    put(const T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "transaction args must be trivially copyable");
        append(&v, sizeof(T));
    }

    /** Length-prefixed byte buffer (volatile inputs — vlog_preserve). */
    void
    putBytes(const void* data, size_t len)
    {
        auto len32 = static_cast<uint32_t>(len);
        append(&len32, sizeof(len32));
        append(data, len);
    }

    /** Unframed bytes: the reader must know the length (getRaw). */
    void
    putRaw(const void* data, size_t len)
    {
        append(data, len);
    }

    std::span<const uint8_t>
    bytes() const
    {
        return {buf_.data(), buf_.size()};
    }

 private:
    void
    append(const void* data, size_t len)
    {
        const auto* p = static_cast<const uint8_t*>(data);
        buf_.insert(buf_.end(), p, p + len);
    }

    std::vector<uint8_t> buf_;
};

class ArgReader {
 public:
    explicit ArgReader(std::span<const uint8_t> blob)
        : p_(blob.data()), end_(blob.data() + blob.size()) {}

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        CNVM_CHECK(p_ + sizeof(T) <= end_, "arg blob underflow");
        T out;
        std::memcpy(&out, p_, sizeof(T));
        p_ += sizeof(T);
        return out;
    }

    /**
     * A byte buffer; the returned span points into the blob itself
     * (persistent for Clobber-NVM), so it stays valid for the whole
     * transaction including recovery re-execution.
     */
    std::span<const uint8_t>
    getBytes()
    {
        return getRaw(get<uint32_t>());
    }

    /** `len` unframed bytes (putRaw), pointing into the blob. */
    std::span<const uint8_t>
    getRaw(size_t len)
    {
        CNVM_CHECK(len <= static_cast<size_t>(end_ - p_),
                   "arg blob underflow");
        std::span<const uint8_t> out{p_, len};
        p_ += len;
        return out;
    }

    std::string_view
    getString()
    {
        auto s = getBytes();
        return {reinterpret_cast<const char*>(s.data()), s.size()};
    }

 private:
    const uint8_t* p_;
    const uint8_t* end_;
};

/** writeArg overload set used by txn::run's pack expansion. */
inline void
writeArg(ArgWriter& w, std::string_view s)
{
    w.putBytes(s.data(), s.size());
}

inline void
writeArg(ArgWriter& w, std::span<const uint8_t> s)
{
    w.putBytes(s.data(), s.size());
}

template <typename T>
void
writeArg(ArgWriter& w, const T& v)
{
    w.put(v);
}

}  // namespace cnvm::txn

#endif  // CNVM_TXN_ARGS_H
