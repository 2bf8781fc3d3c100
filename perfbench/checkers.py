"""Independent output checkers for the perfbench workloads.

They re-verify, outside the program and with nothing but the Python
standard library and the openssl command, samples of what the program
produced during a run:

  * issued User and Channel Ticket signatures, against the managers'
    published RSA keys (PKCS#1 v1.5 type-1 padding over a "S256" tag and
    the SHA-256 digest of the ticket body, as src/crypto/rsa.h specifies);
  * content packets, re-decrypted with `openssl enc -aes-128-ctr` and
    compared with the payloads the benchmark generated.

Nothing is compared against a stored copy: every expected value is
recomputed from the run's own sample files, which the perfbench binary
writes afresh on each run (see README.md).

Each check returns a list of violation strings; empty means it passed.
"""

import hashlib
import json
import shutil
import subprocess

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def rsa_signature_valid(n, e, body, sig):
    """True iff `sig` is a valid signature of `body` under (n, e)."""
    k = (n.bit_length() + 7) // 8
    if len(sig) != k:
        return False
    s = int.from_bytes(sig, "big")
    if s >= n:
        return False
    block = pow(s, e, n).to_bytes(k, "big")
    payload = b"S256" + hashlib.sha256(body).digest()
    if k < len(payload) + 11:
        return False
    expected = b"\x00\x01" + b"\xff" * (k - 3 - len(payload)) + b"\x00" + payload
    return block == expected


def check_tickets(path):
    """Verify every sampled ticket signature in a tickets_*.jsonl file."""
    violations = []
    samples = [json.loads(line) for line in open(path) if line.strip()]
    if not samples:
        return ["%s: no ticket samples" % path]
    for i, s in enumerate(samples):
        n, e = int(s["n"], 16), int(s["e"], 16)
        body, sig = bytes.fromhex(s["body"]), bytes.fromhex(s["sig"])
        if not rsa_signature_valid(n, e, body, sig):
            violations.append("%s ticket sample %d: signature does not verify" % (s["kind"], i))
    # The verifier must also reject: a one-bit change to a body fails.
    first = samples[0]
    body = bytearray(bytes.fromhex(first["body"]))
    body[len(body) // 2] ^= 1
    if rsa_signature_valid(int(first["n"], 16), int(first["e"], 16), bytes(body),
                           bytes.fromhex(first["sig"])):
        violations.append("ticket verifier accepted a tampered body")
    return violations


def packet_iv(nonce, seq):
    """CTR counter block of a content packet: be64(nonce ^ seq*golden) || be64(0)."""
    return ((nonce ^ ((seq * _GOLDEN) & _MASK64)) << 64).to_bytes(16, "big")


def openssl_ctr(key, iv, data):
    out = subprocess.run(
        ["openssl", "enc", "-d", "-aes-128-ctr", "-K", key.hex(), "-iv", iv.hex(), "-nopad"],
        input=data, capture_output=True, check=True, timeout=30)
    return out.stdout


def check_content(path):
    """Re-decrypt every sampled content packet with openssl."""
    if shutil.which("openssl") is None:
        return ["openssl is not installed: content samples cannot be re-decrypted"]
    violations = []
    samples = [json.loads(line) for line in open(path) if line.strip()]
    if not samples:
        return ["%s: no content samples" % path]
    for s in samples:
        key = bytes.fromhex(s["key"])
        cipher = bytes.fromhex(s["ciphertext"])
        plain = bytes.fromhex(s["plaintext"])
        if cipher == plain:
            violations.append("packet %d travelled in the clear" % s["seq"])
        if openssl_ctr(key, packet_iv(s["nonce"], s["seq"]), cipher) != plain:
            violations.append("packet %d does not decrypt to its payload under openssl"
                              % s["seq"])
    # ... and a wrong key must not.
    s = samples[0]
    wrong = bytes(b ^ 0xFF for b in bytes.fromhex(s["key"]))
    if openssl_ctr(wrong, packet_iv(s["nonce"], s["seq"]),
                   bytes.fromhex(s["ciphertext"])) == bytes.fromhex(s["plaintext"]):
        violations.append("content check accepted a wrong key")
    return violations


CHECKS = {"tickets": check_tickets, "content": check_content}
