"""Cumulus-style S3 gateway with a BlobSeer back end (paper §V).

"Our goal is to expose BlobSeer as a Cloud storage service compatible
with existing Cloud storage interfaces.  To this end, we interfaced
BlobSeer with Cumulus, the storage management component in Nimbus,
designed to be interface-compatible with Amazon S3."

The gateway is a frontend service on its own node: cloud users transfer
object payloads to/from the gateway, and the gateway streams them
to/from BlobSeer (one BLOB per object, padded to the chunk size).  All
gateway operations are generators to be run as simulated processes.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..blobseer.errors import RpcTimeout
from .s3_api import (
    Bucket,
    BucketACL,
    BucketAlreadyExists,
    BucketNotEmpty,
    InvalidPart,
    MultipartUpload,
    NoSuchBucket,
    NoSuchKey,
    Permission,
    S3AccessDenied,
    S3Object,
    ServiceUnavailable,
    make_etag,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..blobseer.deployment import BlobSeerDeployment
    from ..cluster.node import PhysicalNode

__all__ = ["CumulusGateway"]


class CumulusGateway:
    """S3-compatible frontend over a BlobSeer deployment."""

    #: Name of the gateway's node and backend client (a deployment has
    #: one gateway).
    GATEWAY_ID = "cumulus"
    #: Service time of a metadata-only operation (bucket and listing
    #: calls, HEAD, multipart bookkeeping).
    LIST_LATENCY_S = 0.0005
    #: The frontend node's fat (10 GbE) pipe, as a service head node's.
    NIC_MBPS = 1250.0

    def __init__(self, deployment: BlobSeerDeployment) -> None:
        self.deployment = deployment
        self.env = deployment.env
        self.net = deployment.net
        self.node = deployment.testbed.add_node(
            f"{self.GATEWAY_ID}-node", nic_in=self.NIC_MBPS, nic_out=self.NIC_MBPS
        )
        #: Backend BlobSeer client the gateway proxies through — it runs
        #: *on* the gateway node (the gateway is the BlobSeer client) and
        #: is otherwise the client the deployment gives anybody.
        self.backend = deployment.new_client(self.GATEWAY_ID, node=self.node)
        self.buckets: Dict[str, Bucket] = {}
        self.uploads: Dict[str, MultipartUpload] = {}
        self._upload_ids = itertools.count(1)
        self.chunk_size_mb = deployment.config.chunk_size_mb
        # Gateway op counters (bench metrics).
        self.puts = 0
        self.gets = 0
        self.bytes_in_mb = 0.0
        self.bytes_out_mb = 0.0

    # -- helpers ---------------------------------------------------------------
    def _bucket(self, name: str) -> Bucket:
        bucket = self.buckets.get(name)
        if bucket is None:
            raise NoSuchBucket(name)
        return bucket

    def _authorize(self, bucket: Bucket, user: str, permission: Permission, action: str) -> None:
        if not bucket.acl.allows(user, permission):
            raise S3AccessDenied(user, action, bucket.name)

    def _padded(self, size_mb: float) -> float:
        """Objects are stored padded up to a whole number of chunks."""
        chunks = max(1, math.ceil(size_mb / self.chunk_size_mb - 1e-9))
        return chunks * self.chunk_size_mb

    # -- bucket operations (metadata only: latency-level cost) ---------------------
    def create_bucket(self, user: str, name: str):
        """Generator: create a bucket owned by *user*."""
        yield self.env.timeout(self.LIST_LATENCY_S)
        if name in self.buckets:
            raise BucketAlreadyExists(name)
        self.buckets[name] = Bucket(
            name=name, acl=BucketACL(owner=user), created_at=self.env.now
        )
        return self.buckets[name]

    def delete_bucket(self, user: str, name: str):
        yield self.env.timeout(self.LIST_LATENCY_S)
        bucket = self._bucket(name)
        self._authorize(bucket, user, Permission.WRITE, "delete_bucket")
        if bucket.objects:
            raise BucketNotEmpty(name)
        del self.buckets[name]

    def list_objects(self, user: str, bucket_name: str, prefix: str = ""):
        yield self.env.timeout(self.LIST_LATENCY_S)
        bucket = self._bucket(bucket_name)
        self._authorize(bucket, user, Permission.READ, "list_objects")
        return bucket.list_keys(prefix)

    def head_object(self, user: str, bucket_name: str, key: str):
        yield self.env.timeout(self.LIST_LATENCY_S)
        bucket = self._bucket(bucket_name)
        self._authorize(bucket, user, Permission.READ, "head_object")
        entry = bucket.objects.get(key)
        if entry is None:
            raise NoSuchKey(bucket_name, key)
        return entry

    # -- data path -------------------------------------------------------------------
    def put_object(
        self,
        user: str,
        user_node: PhysicalNode,
        bucket_name: str,
        key: str,
        size_mb: float,
        content_type: str = "application/octet-stream",
    ):
        """Generator: upload an object (user → gateway → BlobSeer)."""
        bucket = self._bucket(bucket_name)
        self._authorize(bucket, user, Permission.WRITE, "put_object")
        if size_mb <= 0:
            raise ValueError("size_mb must be positive")
        # 1. user streams the payload to the gateway
        yield self.net.transfer(user_node.name, self.node.name, size_mb, tag=user)
        # 2. gateway stores it as a fresh BLOB (padded to chunk multiple)
        padded = self._padded(size_mb)
        # Backend control-plane timeouts (version-manager or provider
        # unreachable, e.g. mid-failover) surface to the S3 caller as a
        # retriable 503 naming the failed operation, never as a leaked
        # internal exception.
        try:
            blob_id = yield from self.backend.create_blob(self.chunk_size_mb)
            result = yield from self.backend.append(blob_id, padded)
        except RpcTimeout as exc:
            raise ServiceUnavailable("put_object", str(exc)) from exc
        entry = S3Object(
            key=key,
            size_mb=size_mb,
            blob_id=blob_id,
            version=result.version,
            etag=make_etag(bucket_name, key, size_mb, result.version),
            created_at=self.env.now,
            owner=user,
            content_type=content_type,
        )
        bucket.objects[key] = entry
        self.puts += 1
        self.bytes_in_mb += size_mb
        return entry

    def get_object(self, user: str, user_node: PhysicalNode, bucket_name: str, key: str):
        """Generator: download an object (BlobSeer → gateway → user)."""
        bucket = self._bucket(bucket_name)
        self._authorize(bucket, user, Permission.READ, "get_object")
        entry = bucket.objects.get(key)
        if entry is None:
            raise NoSuchKey(bucket_name, key)
        padded = self._padded(entry.size_mb)
        try:
            yield from self.backend.read(
                entry.blob_id, 0.0, padded, version=entry.version
            )
        except RpcTimeout as exc:
            raise ServiceUnavailable("get_object", str(exc)) from exc
        yield self.net.transfer(self.node.name, user_node.name, entry.size_mb, tag=user)
        self.gets += 1
        self.bytes_out_mb += entry.size_mb
        return entry

    def delete_object(self, user: str, bucket_name: str, key: str):
        yield self.env.timeout(self.LIST_LATENCY_S)
        bucket = self._bucket(bucket_name)
        self._authorize(bucket, user, Permission.WRITE, "delete_object")
        entry = bucket.objects.pop(key, None)
        if entry is None:
            raise NoSuchKey(bucket_name, key)
        # Chunk space is reclaimed asynchronously by the removal manager
        # (cold/orphan strategies), matching S3's eventual reclamation.
        return entry

    # -- multipart -------------------------------------------------------------------
    def initiate_multipart(self, user: str, bucket_name: str, key: str):
        yield self.env.timeout(self.LIST_LATENCY_S)
        bucket = self._bucket(bucket_name)
        self._authorize(bucket, user, Permission.WRITE, "initiate_multipart")
        upload_id = f"mpu-{next(self._upload_ids)}"
        self.uploads[upload_id] = MultipartUpload(
            upload_id=upload_id, bucket=bucket_name, key=key,
            owner=user, started_at=self.env.now,
        )
        return upload_id

    def upload_part(
        self,
        user: str,
        user_node: PhysicalNode,
        upload_id: str,
        part_number: int,
        size_mb: float,
    ):
        """Generator: stage one part at the gateway."""
        upload = self.uploads.get(upload_id)
        if upload is None or upload.owner != user:
            raise InvalidPart(f"unknown upload {upload_id!r}")
        if part_number < 1:
            raise InvalidPart("part numbers start at 1")
        yield self.net.transfer(user_node.name, self.node.name, size_mb, tag=user)
        upload.parts[part_number] = size_mb
        return make_etag(upload_id, part_number, size_mb)

    def complete_multipart(self, user: str, upload_id: str):
        """Generator: assemble the parts into one BLOB, in part order."""
        upload = self.uploads.get(upload_id)
        if upload is None or upload.owner != user:
            raise InvalidPart(f"unknown upload {upload_id!r}")
        if not upload.parts:
            raise InvalidPart("no parts uploaded")
        bucket = self._bucket(upload.bucket)
        try:
            blob_id = yield from self.backend.create_blob(self.chunk_size_mb)
            version = 0
            for part_number in sorted(upload.parts):
                padded = self._padded(upload.parts[part_number])
                result = yield from self.backend.append(blob_id, padded)
                version = result.version
        except RpcTimeout as exc:
            raise ServiceUnavailable("complete_multipart", str(exc)) from exc
        size = upload.total_size_mb()
        entry = S3Object(
            key=upload.key,
            size_mb=size,
            blob_id=blob_id,
            version=version,
            etag=make_etag(upload.bucket, upload.key, size, "multipart"),
            created_at=self.env.now,
            owner=user,
        )
        bucket.objects[upload.key] = entry
        del self.uploads[upload_id]
        self.puts += 1
        self.bytes_in_mb += size
        return entry
