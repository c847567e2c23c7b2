#include "src/ecc/ecc_engine.hh"

#include <algorithm>
#include <cstring>

#include "src/common/logging.hh"
#include "src/ecc/codec_registry.hh"
#include "src/ecc/secded.hh"

namespace sam {

namespace {

/** Little-endian load of an 8-byte word. */
std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

void
store64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        p[i] = static_cast<std::uint8_t>(v & 0xff);
        v >>= 8;
    }
}

} // namespace

void
EccEngineStats::registerIn(StatGroup &group) const
{
    group.addCounter("linesDecoded", linesDecoded,
                     "lines run through the decoder");
    group.addCounter("codewordsCorrected", codewordsCorrected,
                     "codewords repaired in place");
    group.addCounter("codewordsDetected", codewordsDetected,
                     "codewords detected-uncorrectable");
    group.addCounter("symbolsCorrected", symbolsCorrected,
                     "symbols/bits repaired in total");
}

namespace {

/** RS (n, k) of `scheme`, or (0, 0) for the non-RS schemes. */
std::pair<unsigned, unsigned>
rsParamsFor(EccScheme scheme)
{
    switch (scheme) {
      case EccScheme::Ssc:
      case EccScheme::Ssc32:
        return {18, 16};
      case EccScheme::SscDsd:
        return {36, 32};
      case EccScheme::Bamboo72:
        return {72, 64};
      case EccScheme::SecDed:
      case EccScheme::None:
        return {0, 0};
    }
    panic("unknown EccScheme");
}

} // namespace

EccEngine::EccEngine(EccScheme scheme)
    : scheme_(scheme)
{
    const auto [n, k] = rsParamsFor(scheme_);
    if (n != 0)
        rs_ = &CodecRegistry::reedSolomon(n, k);
}

EccEngine::EccEngine(EccScheme scheme, PrivateCodec)
    : scheme_(scheme)
{
    const auto [n, k] = rsParamsFor(scheme_);
    if (n != 0) {
        ownedRs_ = CodecRegistry::makePrivate(n, k);
        rs_ = ownedRs_.get();
    }
}

unsigned
EccEngine::parityBytesPerLine() const
{
    return parityBytesFor(scheme_);
}

unsigned
EccEngine::numChipsFor(EccScheme scheme)
{
    switch (scheme) {
      case EccScheme::None:   return 16;
      case EccScheme::SscDsd: return 36;
      default:                return 18;
    }
}

unsigned
EccEngine::numDataChips() const
{
    return scheme_ == EccScheme::SscDsd ? 32 : 16;
}

std::vector<std::uint8_t>
EccEngine::encodeLine(const std::vector<std::uint8_t> &line) const
{
    sam_assert(line.size() == kCachelineBytes,
               "encodeLine expects a 64B line, got ", line.size());
    return encodeLine(line.data());
}

std::vector<std::uint8_t>
EccEngine::encodeLine(const std::uint8_t *data64) const
{
    std::vector<std::uint8_t> blob(kCachelineBytes +
                                       parityBytesPerLine(),
                                   0);
    encodeLineInto(data64, blob.data());
    return blob;
}

void
EccEngine::encodeLineInto(const std::uint8_t *data64,
                          std::uint8_t *blob) const
{
    const std::uint8_t *line = data64;
    std::memcpy(blob, line, kCachelineBytes);

    switch (scheme_) {
      case EccScheme::None:
        break;

      case EccScheme::SecDed:
        for (unsigned j = 0; j < 8; ++j)
            blob[64 + j] = SecDed::encode(load64(&blob[8 * j]));
        break;

      case EccScheme::Ssc:
        for (unsigned j = 0; j < 4; ++j)
            rs_->encodeParity(line + 16 * j, blob + 64 + 2 * j);
        break;

      case EccScheme::Bamboo72:
        rs_->encodeParity(line, blob + 64);
        break;

      case EccScheme::SscDsd:
        for (unsigned j = 0; j < 2; ++j)
            rs_->encodeParity(line + 32 * j, blob + 64 + 4 * j);
        break;

      case EccScheme::Ssc32:
        for (unsigned j = 0; j < 2; ++j) {
            for (unsigned i = 0; i < 2; ++i) {
                std::uint8_t data[16];
                std::uint8_t parity[2];
                for (unsigned s = 0; s < 16; ++s)
                    data[s] = line[32 * j + 2 * s + i];
                rs_->encodeParity(data, parity);
                blob[64 + 4 * j + i] = parity[0];
                blob[64 + 4 * j + 2 + i] = parity[1];
            }
        }
        break;
    }
}

EccLineResult
EccEngine::decodeLine(std::vector<std::uint8_t> &blob) const
{
    sam_assert(blob.size() == kCachelineBytes + parityBytesPerLine(),
               "decodeLine: wrong blob size ", blob.size());

    EccLineResult result;
    ++stats_.linesDecoded;
    auto note = [this, &result](DecodeStatus status, unsigned n_fixed) {
        switch (status) {
          case DecodeStatus::Clean:
            break;
          case DecodeStatus::Corrected:
            result.clean = false;
            result.corrected = true;
            result.symbolsCorrected += n_fixed;
            ++stats_.codewordsCorrected;
            stats_.symbolsCorrected += n_fixed;
            break;
          case DecodeStatus::Detected:
            result.clean = false;
            result.uncorrectable = true;
            ++stats_.codewordsDetected;
            break;
        }
    };

    switch (scheme_) {
      case EccScheme::None:
        break;

      case EccScheme::SecDed:
        for (unsigned j = 0; j < 8; ++j) {
            std::uint64_t data = load64(&blob[8 * j]);
            std::uint8_t check = blob[64 + j];
            const SecDedResult r = SecDed::decode(data, check);
            switch (r.status) {
              case SecDedResult::Status::Clean:
                break;
              case SecDedResult::Status::CorrectedData:
              case SecDedResult::Status::CorrectedCheck:
                store64(&blob[8 * j], data);
                blob[64 + j] = check;
                note(DecodeStatus::Corrected, 1);
                break;
              case SecDedResult::Status::Detected:
                note(DecodeStatus::Detected, 0);
                break;
            }
        }
        break;

      case EccScheme::Bamboo72: {
        std::vector<std::uint8_t> cw(blob.begin(),
                                     blob.begin() + 72);
        const DecodeResult r = rs_->decode(cw);
        if (r.status == DecodeStatus::Corrected)
            std::copy(cw.begin(), cw.end(), blob.begin());
        note(r.status,
             static_cast<unsigned>(r.correctedPositions.size()));
        break;
      }

      case EccScheme::Ssc:
        for (unsigned j = 0; j < 4; ++j) {
            std::vector<std::uint8_t> cw(blob.begin() + 16 * j,
                                         blob.begin() + 16 * (j + 1));
            cw.push_back(blob[64 + 2 * j]);
            cw.push_back(blob[64 + 2 * j + 1]);
            const DecodeResult r = rs_->decode(cw);
            if (r.status == DecodeStatus::Corrected) {
                std::copy(cw.begin(), cw.begin() + 16,
                          blob.begin() + 16 * j);
                blob[64 + 2 * j] = cw[16];
                blob[64 + 2 * j + 1] = cw[17];
            }
            note(r.status,
                 static_cast<unsigned>(r.correctedPositions.size()));
        }
        break;

      case EccScheme::SscDsd:
        for (unsigned j = 0; j < 2; ++j) {
            std::vector<std::uint8_t> cw(blob.begin() + 32 * j,
                                         blob.begin() + 32 * (j + 1));
            for (unsigned p = 0; p < 4; ++p)
                cw.push_back(blob[64 + 4 * j + p]);
            // SSC-DSD policy: correct one chip symbol, detect two.
            const DecodeResult r = rs_->decode(cw, 1);
            if (r.status == DecodeStatus::Corrected) {
                std::copy(cw.begin(), cw.begin() + 32,
                          blob.begin() + 32 * j);
                for (unsigned p = 0; p < 4; ++p)
                    blob[64 + 4 * j + p] = cw[32 + p];
            }
            note(r.status,
                 static_cast<unsigned>(r.correctedPositions.size()));
        }
        break;

      case EccScheme::Ssc32:
        for (unsigned j = 0; j < 2; ++j) {
            for (unsigned i = 0; i < 2; ++i) {
                std::vector<std::uint8_t> cw(18);
                for (unsigned s = 0; s < 16; ++s)
                    cw[s] = blob[32 * j + 2 * s + i];
                cw[16] = blob[64 + 4 * j + i];
                cw[17] = blob[64 + 4 * j + 2 + i];
                const DecodeResult r = rs_->decode(cw);
                if (r.status == DecodeStatus::Corrected) {
                    for (unsigned s = 0; s < 16; ++s)
                        blob[32 * j + 2 * s + i] = cw[s];
                    blob[64 + 4 * j + i] = cw[16];
                    blob[64 + 4 * j + 2 + i] = cw[17];
                }
                note(r.status,
                     static_cast<unsigned>(r.correctedPositions.size()));
            }
        }
        break;
    }
    return result;
}

std::vector<std::size_t>
EccEngine::chipBits(unsigned chip) const
{
    sam_assert(chip < numChips(), "chip ", chip, " out of range");
    std::vector<std::size_t> bits;

    switch (scheme_) {
      case EccScheme::None:
      case EccScheme::SecDed:
        // x4 geometry: per 72-bit codeword, data chip c drives data bits
        // [4c, 4c+4); parity chips drive the check byte nibbles.
        for (unsigned j = 0; j < 8; ++j) {
            if (chip < 16) {
                for (unsigned b = 0; b < 4; ++b)
                    bits.push_back(static_cast<std::size_t>(8 * j) * 8 +
                                   4 * chip + b);
            } else if (scheme_ == EccScheme::SecDed) {
                const unsigned lo = (chip - 16) * 4;
                for (unsigned b = 0; b < 4; ++b)
                    bits.push_back(static_cast<std::size_t>(64 + j) * 8 +
                                   lo + b);
            }
        }
        break;

      default:
        for (std::size_t byte : chipBytes(chip)) {
            for (unsigned b = 0; b < 8; ++b)
                bits.push_back(byte * 8 + b);
        }
        break;
    }
    return bits;
}

std::vector<std::size_t>
EccEngine::chipBytes(unsigned chip) const
{
    std::vector<std::size_t> bytes;
    switch (scheme_) {
      case EccScheme::Ssc:
        for (unsigned j = 0; j < 4; ++j) {
            if (chip < 16)
                bytes.push_back(16 * j + chip);
            else
                bytes.push_back(64 + 2 * j + (chip - 16));
        }
        break;

      case EccScheme::Bamboo72:
        // Chip c's four 8-bit symbols: one per 18-symbol stripe.
        for (unsigned j = 0; j < 4; ++j) {
            if (chip < 16)
                bytes.push_back(16 * j + chip);
            else
                bytes.push_back(64 + 2 * j + (chip - 16));
        }
        break;

      case EccScheme::SscDsd:
        for (unsigned j = 0; j < 2; ++j) {
            if (chip < 32)
                bytes.push_back(32 * j + chip);
            else
                bytes.push_back(64 + 4 * j + (chip - 32));
        }
        break;

      case EccScheme::Ssc32:
        for (unsigned j = 0; j < 2; ++j) {
            if (chip < 16) {
                bytes.push_back(32 * j + 2 * chip);
                bytes.push_back(32 * j + 2 * chip + 1);
            } else {
                bytes.push_back(64 + 4 * j + 2 * (chip - 16));
                bytes.push_back(64 + 4 * j + 2 * (chip - 16) + 1);
            }
        }
        break;

      default:
        panic("chipBytes: bit-granular scheme");
    }
    return bytes;
}

void
EccEngine::corruptChip(std::vector<std::uint8_t> &blob, unsigned chip) const
{
    for (std::size_t bit : chipBits(chip))
        flipBit(blob, bit);
}

void
EccEngine::corruptChipBits(std::vector<std::uint8_t> &blob, unsigned chip,
                           unsigned nbits, Rng &rng) const
{
    auto bits = chipBits(chip);
    sam_assert(!bits.empty(), "chip drives no bits");
    for (unsigned i = 0; i < nbits; ++i)
        flipBit(blob, bits[rng.below(bits.size())]);
}

void
EccEngine::flipBit(std::vector<std::uint8_t> &blob, std::size_t bit_index)
{
    sam_assert(bit_index / 8 < blob.size(), "flipBit out of range");
    blob[bit_index / 8] ^= static_cast<std::uint8_t>(1u << (bit_index % 8));
}

bool
EccEngine::toleratesChipFailure() const
{
    switch (scheme_) {
      case EccScheme::Ssc:
      case EccScheme::SscDsd:
      case EccScheme::Ssc32:
      case EccScheme::Bamboo72:
        return true;
      case EccScheme::SecDed:
      case EccScheme::None:
        return false;
    }
    panic("unknown EccScheme");
}

} // namespace sam
